#include "obs/trace.h"

#include <algorithm>
#include <cstring>

#include "util/csv.h"
#include "util/json.h"

namespace hydra::obs {
namespace {

std::atomic<std::uint64_t> g_tracer_serial{1};

struct TlsBufferRef {
  std::uint64_t serial = 0;
  void* buffer = nullptr;
};

thread_local std::vector<TlsBufferRef> t_buffers;

struct TlsLane {
  std::uint64_t serial = 0;
  std::uint32_t lane = SimLaneScope::kNoLane;
};

thread_local TlsLane t_thread_lane;

thread_local std::uint32_t t_sim_lane = SimLaneScope::kNoLane;

void copy_label(char (&dst)[TraceEvent::kLabelSize], std::string_view src) {
  const std::size_t n =
      std::min(src.size(), TraceEvent::kLabelSize - 1);
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

/// Chrome trace pids: one process for the wall-clock lanes, one process
/// per sim lane (offset by the lane id).
constexpr int kWallPid = 1;
constexpr int kSimPidBase = 1000;

}  // namespace

SimLaneScope::SimLaneScope(std::uint32_t lane) : prev_(t_sim_lane) {
  t_sim_lane = lane;
}

SimLaneScope::~SimLaneScope() { t_sim_lane = prev_; }

std::uint32_t SimLaneScope::current() { return t_sim_lane; }

Tracer::Tracer()
    : serial_(g_tracer_serial.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now()) {}

Tracer::~Tracer() = default;

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::uint32_t Tracer::new_lane(std::string name, TimeDomain domain) {
  const util::LockGuard lock(mu_);
  lanes_.push_back(Lane{std::move(name), domain});
  return static_cast<std::uint32_t>(lanes_.size() - 1);
}

std::uint32_t Tracer::thread_lane() {
  if (t_thread_lane.serial != serial_) {
    std::uint32_t id;
    {
      const util::LockGuard lock(mu_);
      id = static_cast<std::uint32_t>(lanes_.size());
      lanes_.push_back(
          Lane{"thread-" + std::to_string(id), TimeDomain::kWall});
    }
    t_thread_lane = TlsLane{serial_, id};
  }
  return t_thread_lane.lane;
}

void Tracer::set_thread_name(std::string name) {
  const std::uint32_t id = thread_lane();
  const util::LockGuard lock(mu_);
  lanes_[id].name = std::move(name);
}

Tracer::Buffer& Tracer::local_buffer() {
  for (const TlsBufferRef& ref : t_buffers) {
    if (ref.serial == serial_) return *static_cast<Buffer*>(ref.buffer);
  }
  auto owned = std::make_unique<Buffer>();
  Buffer* buffer = owned.get();
  {
    const util::LockGuard lock(mu_);
    buffers_.push_back(std::move(owned));
  }
  t_buffers.push_back(TlsBufferRef{serial_, buffer});
  return *buffer;
}

// Single-writer protocol the analysis cannot express: `buf` is this
// thread's own buffer, and the owner is the only thread that ever grows
// `chunks`, so its unlocked reads of the chunk list cannot race — the
// mutex exists for the quiesced readers (write_*/clear), which do lock.
TraceEvent& Tracer::append_begin(Buffer& buf)
    HYDRA_NO_THREAD_SAFETY_ANALYSIS {
  const std::size_t count = buf.count.load(std::memory_order_relaxed);
  const std::size_t chunk = count / kChunkEvents;
  if (chunk == buf.chunks.size()) {
    auto owned = std::make_unique<Chunk>();
    const util::LockGuard lock(buf.mu);
    buf.chunks.push_back(std::move(owned));
  }
  return buf.chunks[chunk]->events[count % kChunkEvents];
}

void Tracer::append_commit(Buffer& buf) {
  buf.count.store(buf.count.load(std::memory_order_relaxed) + 1,
                  std::memory_order_release);
}

void Tracer::instant(std::uint32_t lane, TimeDomain domain,
                     const char* category, const char* name, double ts_us,
                     const char* arg0_name, double arg0,
                     const char* arg1_name, double arg1) {
  if (!sim_trace_on(*this, lane)) return;
  Buffer& buf = local_buffer();
  TraceEvent& e = append_begin(buf);
  e = TraceEvent{};
  e.ts_us = ts_us;
  e.category = category;
  e.name = name;
  e.arg0_name = arg0_name;
  e.arg0 = arg0;
  e.arg1_name = arg1_name;
  e.arg1 = arg1;
  e.lane = lane;
  e.phase = TraceEvent::Phase::kInstant;
  e.domain = domain;
  append_commit(buf);
}

void Tracer::counter(std::uint32_t lane, TimeDomain domain, const char* name,
                     double ts_us, double value) {
  if (!sim_trace_on(*this, lane)) return;
  Buffer& buf = local_buffer();
  TraceEvent& e = append_begin(buf);
  e = TraceEvent{};
  e.ts_us = ts_us;
  e.category = "counter";
  e.name = name;
  e.arg0_name = "value";
  e.arg0 = value;
  e.lane = lane;
  e.phase = TraceEvent::Phase::kCounter;
  e.domain = domain;
  append_commit(buf);
}

void Tracer::complete(const char* category, const char* name,
                      std::string_view label, double start_us,
                      double dur_us) {
  if (!enabled()) return;
  const std::uint32_t lane = thread_lane();
  Buffer& buf = local_buffer();
  TraceEvent& e = append_begin(buf);
  e = TraceEvent{};
  e.ts_us = start_us;
  e.dur_us = dur_us;
  e.category = category;
  e.name = name;
  if (!label.empty()) copy_label(e.label, label);
  e.lane = lane;
  e.phase = TraceEvent::Phase::kComplete;
  e.domain = TimeDomain::kWall;
  append_commit(buf);
}

std::size_t Tracer::size() const {
  const util::LockGuard lock(mu_);
  std::size_t total = 0;
  for (const auto& buf : buffers_) {
    total += buf->count.load(std::memory_order_acquire);
  }
  return total;
}

void Tracer::clear() {
  const util::LockGuard lock(mu_);
  for (const auto& buf : buffers_) {
    Buffer& b = *buf;
    const util::LockGuard buf_lock(b.mu);
    b.count.store(0, std::memory_order_release);
    b.chunks.clear();
  }
}

template <typename Fn>
void Tracer::for_each_event(Fn&& fn) const {
  for (const auto& buf : buffers_) {
    Buffer& b = *buf;
    const util::LockGuard buf_lock(b.mu);
    const std::size_t count = b.count.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < count; ++i) {
      fn(b.chunks[i / kChunkEvents]->events[i % kChunkEvents]);
    }
  }
}

void Tracer::write_chrome_json(std::ostream& out) const {
  const util::LockGuard lock(mu_);
  util::JsonWriter w(out, 0);
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();

  // Metadata: process names per time domain (one process per sim lane)
  // and thread names per wall lane.
  w.begin_object();
  w.key("name").value("process_name");
  w.key("ph").value("M");
  w.key("pid").value(kWallPid);
  w.key("args").begin_object();
  w.key("name").value("wall clock");
  w.end_object();
  w.end_object();
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    w.begin_object();
    if (lanes_[i].domain == TimeDomain::kSim) {
      w.key("name").value("process_name");
      w.key("ph").value("M");
      w.key("pid").value(kSimPidBase + static_cast<int>(i));
      w.key("args").begin_object();
      w.key("name").value("sim: " + lanes_[i].name);
      w.end_object();
    } else {
      w.key("name").value("thread_name");
      w.key("ph").value("M");
      w.key("pid").value(kWallPid);
      w.key("tid").value(static_cast<int>(i));
      w.key("args").begin_object();
      w.key("name").value(lanes_[i].name);
      w.end_object();
    }
    w.end_object();
  }

  for_each_event([&w](const TraceEvent& e) {
    w.begin_object();
    w.key("name").value(e.label[0] != '\0' ? e.label : e.name);
    w.key("cat").value(e.category);
    w.key("ph").value(std::string(1, static_cast<char>(e.phase)));
    if (e.domain == TimeDomain::kSim) {
      w.key("pid").value(kSimPidBase + static_cast<int>(e.lane));
      w.key("tid").value(0);
    } else {
      w.key("pid").value(kWallPid);
      w.key("tid").value(static_cast<int>(e.lane));
    }
    w.key("ts").value(e.ts_us);
    if (e.phase == TraceEvent::Phase::kComplete) {
      w.key("dur").value(e.dur_us);
    }
    if (e.phase == TraceEvent::Phase::kInstant) w.key("s").value("t");
    if (e.arg0_name != nullptr || e.arg1_name != nullptr) {
      w.key("args").begin_object();
      if (e.arg0_name != nullptr) w.key(e.arg0_name).value(e.arg0);
      if (e.arg1_name != nullptr) w.key(e.arg1_name).value(e.arg1);
      w.end_object();
    }
    w.end_object();
  });

  w.end_array();
  w.end_object();
  out << '\n';
}

void Tracer::write_csv(std::ostream& out) const {
  const util::LockGuard lock(mu_);
  // Snapshot the lane names before the loop: the lambda below is
  // analyzed as its own function, which cannot see the lock held here,
  // so it must not touch mu_-guarded members directly.
  std::vector<std::string> lane_names;
  lane_names.reserve(lanes_.size());
  for (const Lane& lane : lanes_) lane_names.push_back(lane.name);
  util::CsvWriter csv(out);
  csv.row({"domain", "lane", "lane_name", "phase", "category", "name",
           "ts_us", "dur_us", "arg0_name", "arg0", "arg1_name", "arg1"});
  for_each_event([&csv, &lane_names](const TraceEvent& e) {
    csv.row({e.domain == TimeDomain::kSim ? "sim" : "wall",
             std::to_string(e.lane),
             e.lane < lane_names.size() ? lane_names[e.lane] : "",
             std::string(1, static_cast<char>(e.phase)), e.category,
             e.label[0] != '\0' ? e.label : e.name,
             util::CsvWriter::format_double(e.ts_us),
             util::CsvWriter::format_double(e.dur_us),
             e.arg0_name != nullptr ? e.arg0_name : "",
             util::CsvWriter::format_double(e.arg0),
             e.arg1_name != nullptr ? e.arg1_name : "",
             util::CsvWriter::format_double(e.arg1)});
  });
}

}  // namespace hydra::obs
