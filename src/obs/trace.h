// Structured event tracing: DTM/thermal events and profiling spans,
// exported as Chrome trace-event JSON (chrome://tracing / Perfetto) and
// as a flat CSV.
//
// Two time domains share one trace:
//  * kWall — host wall-clock microseconds since the tracer's epoch.
//    Profiling spans (per-job runs, model builds, run phases) live here,
//    one lane per thread, so the Perfetto view shows pool occupancy.
//  * kSim — simulated seconds (emitted as microseconds). Every System
//    run opens its own sim lane, rendered as its own Perfetto process,
//    so concurrent memoized runs do not interleave on one timeline.
//    DTM events (DVS transitions, policy engage, emergencies,
//    quarantines) and counter tracks (temperature, duty, power) live
//    here.
//
// Recording is designed for the simulator's hot loops: when disabled
// (the default) every record call is one relaxed atomic load and a
// branch, no allocation. When enabled, each thread appends to its own
// chunked buffer — plain stores published by a release on the buffer
// count, a mutex touched only when a chunk fills (every
// kChunkEvents records). Event name/category strings must have static
// lifetime; per-event dynamic text goes into the fixed `label` field.
//
// write_*/clear are meant for quiesced traces (runs joined, pool idle);
// concurrent recorders are not corrupted but may be partially missed.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "util/sync.h"
#include "util/thread_annotations.h"

namespace hydra::obs {

enum class TimeDomain : std::uint8_t { kWall, kSim };

struct TraceEvent {
  enum class Phase : char {
    kComplete = 'X',  ///< span with duration
    kInstant = 'i',   ///< point event
    kCounter = 'C',   ///< counter-track sample
  };
  static constexpr std::size_t kLabelSize = 40;

  double ts_us = 0.0;
  double dur_us = 0.0;                 ///< kComplete only
  const char* category = "";           ///< static-lifetime string
  const char* name = "";               ///< static-lifetime string
  char label[kLabelSize] = {};         ///< optional dynamic name override
  const char* arg0_name = nullptr;
  double arg0 = 0.0;
  const char* arg1_name = nullptr;
  double arg1 = 0.0;
  std::uint32_t lane = 0;
  Phase phase = Phase::kInstant;
  TimeDomain domain = TimeDomain::kWall;
};

class Tracer {
 public:
  static constexpr std::size_t kChunkEvents = 1024;

  Tracer();
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Host wall-clock microseconds since the tracer's construction.
  double now_us() const;

  /// Open a named lane. kWall lanes render as threads of the wall-clock
  /// process; kSim lanes render as their own process. Locks; not for
  /// hot paths (one call per run / per thread).
  std::uint32_t new_lane(std::string name, TimeDomain domain);

  /// This thread's wall lane, created as "thread-N" on first use.
  std::uint32_t thread_lane();

  /// Rename this thread's wall lane (e.g. "pool-worker-3"). Cheap to
  /// call unconditionally; the name also applies to later traces.
  void set_thread_name(std::string name);

  // --- Recording (wait-free, allocation-free off chunk boundaries) ---
  void instant(std::uint32_t lane, TimeDomain domain, const char* category,
               const char* name, double ts_us,
               const char* arg0_name = nullptr, double arg0 = 0.0,
               const char* arg1_name = nullptr, double arg1 = 0.0);
  /// One sample of the counter track `name` (value plotted over time).
  void counter(std::uint32_t lane, TimeDomain domain, const char* name,
               double ts_us, double value);
  /// A completed wall-clock span on this thread's lane. `label`, when
  /// non-empty, overrides `name` in the viewer (truncated to fit).
  void complete(const char* category, const char* name,
                std::string_view label, double start_us, double dur_us);

  std::size_t size() const;  ///< events recorded since the last clear()
  void clear();

  void write_chrome_json(std::ostream& out) const;
  void write_csv(std::ostream& out) const;

 private:
  struct Chunk {
    std::array<TraceEvent, kChunkEvents> events;
  };
  struct Buffer {
    /// Guards chunk-list growth and readers. The owning thread also
    /// reads `chunks` lock-free in append_begin — the single-writer
    /// protocol documented there.
    mutable util::Mutex mu;
    std::vector<std::unique_ptr<Chunk>> chunks HYDRA_GUARDED_BY(mu);
    std::atomic<std::size_t> count{0};
  };

  Buffer& local_buffer();
  /// Slot for the next event in `buf`. The caller fills it and then
  /// calls append_commit, which publishes it with a release store.
  TraceEvent& append_begin(Buffer& buf);
  void append_commit(Buffer& buf);

  template <typename Fn>
  void for_each_event(Fn&& fn) const HYDRA_REQUIRES(mu_);

  const std::uint64_t serial_;
  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;

  mutable util::Mutex mu_;  ///< lanes + buffer list
  struct Lane {
    std::string name;
    TimeDomain domain = TimeDomain::kWall;
  };
  std::vector<Lane> lanes_ HYDRA_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<Buffer>> buffers_ HYDRA_GUARDED_BY(mu_);
};

/// Scoped thread-local "current simulated-time lane": a System sets it
/// for the duration of its run so deep layers (policies, the fault
/// injector) can emit sim-time events without a lane threaded through
/// every call. kNoLane (the default) makes those emitters no-ops.
class SimLaneScope {
 public:
  static constexpr std::uint32_t kNoLane = 0xffffffffu;

  explicit SimLaneScope(std::uint32_t lane);
  ~SimLaneScope();

  SimLaneScope(const SimLaneScope&) = delete;
  SimLaneScope& operator=(const SimLaneScope&) = delete;

  static std::uint32_t current();

 private:
  std::uint32_t prev_;
};

/// Simulated seconds -> trace microseconds: the sim time domain renders
/// simulated time on Perfetto's microsecond axis.
inline constexpr double kSimUs = 1e6;

/// Whether a sim-time event on `lane` is recorded: tracing is on and the
/// caller has a lane. Emitters test it before computing their arguments.
inline bool sim_trace_on(const Tracer& tracer, std::uint32_t lane) {
  return tracer.enabled() && lane != SimLaneScope::kNoLane;
}

}  // namespace hydra::obs
