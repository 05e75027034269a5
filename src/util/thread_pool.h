// Work-stealing thread pool for the parallel experiment engine.
//
// Every figure/table in the paper is a sweep of independent
// (benchmark x policy x config) simulations; the pool lets the
// ExperimentRunner execute them concurrently while keeping results
// deterministic (determinism comes from keying results by submission
// order, never completion order — see sim/experiment.h).
//
// Design: one deque per worker, each guarded by its own mutex. submit()
// distributes jobs round-robin across the deques; a worker pops from the
// front of its own deque and, when that is empty, steals from the back
// of its siblings'. Idle workers sleep on a shared condition variable.
// Jobs should not throw (wrap work in std::packaged_task — async() below
// does this — so exceptions travel through the future instead); one that
// does anyway is contained by the worker loop rather than taking the
// process down with std::terminate — the escape is counted, reported
// through the failure hook, and the worker keeps serving jobs.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/sync.h"
#include "util/thread_annotations.h"

namespace hydra::util {

class ThreadPool {
 public:
  /// Spawn `threads` workers (clamped to >= 1).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue a job. Must not throw; use async() for work that can.
  void submit(std::function<void()> job);

  /// Enqueue `f` and return a future for its result. Exceptions thrown
  /// by `f` are captured and rethrown from the future.
  template <typename F>
  auto async(F f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(f));
    std::future<R> future = task->get_future();
    submit([task] { (*task)(); });
    return future;
  }

  /// Run fn(0) .. fn(n-1) across the pool and return when all have
  /// completed — the intra-run fan-out/barrier the multicore System uses
  /// once per thermal interval. Indices are claimed from a shared atomic
  /// counter; the CALLING thread participates in claiming, so the call
  /// completes even when the pool is width 1, saturated, or when the
  /// caller itself is a pool worker (an experiment job fanning out its
  /// own tiles) — the caller can always drain the remaining indices
  /// itself, so the barrier cannot deadlock. Each index runs exactly
  /// once; which thread runs it is scheduling-dependent, so fn must
  /// confine writes to per-index state for deterministic results. The
  /// first exception thrown by any fn is rethrown here after the
  /// barrier; the remaining indices still run.
  void for_each_index(std::size_t n,
                      const std::function<void(std::size_t)>& fn);

  /// Process-wide pool sized by the HYDRA_THREADS environment variable
  /// (default: hardware_concurrency). Created on first use.
  static ThreadPool& global();

  /// The width HYDRA_THREADS requests (>= 1), without creating the pool;
  /// unset, empty or 0 means hardware_concurrency. Throws
  /// std::invalid_argument when the variable is not an unsigned integer.
  static std::size_t configured_width();

  /// Process-wide hook run by each worker thread as it starts, with the
  /// worker's index. Installed by the observability layer to name trace
  /// lanes; util itself stays observability-free. Workers spawned before
  /// the hook is installed never see it, so install it before the first
  /// ThreadPool is created (obs does this on first use).
  static void set_worker_start_hook(void (*hook)(std::size_t));

  /// Process-wide hook invoked when an exception escapes a raw submitted
  /// job (async() jobs never trip it — packaged_task captures theirs,
  /// and RunCache routes its jobs' failures through their futures).
  /// Installed by the observability layer, which counts the containment
  /// as `pool.contained_exceptions`; `what` is the exception message
  /// (or "unknown exception").
  static void set_job_failure_hook(void (*hook)(const char* what));

 private:
  // Cache-line aligned so two workers hammering adjacent per-worker
  // queues (or the hot shared counters below) never false-share a line.
  struct alignas(64) Queue {
    Mutex mu;
    std::deque<std::function<void()>> jobs HYDRA_GUARDED_BY(mu);
  };

  bool try_pop(std::size_t self, std::function<void()>& job);
  void worker_loop(std::size_t self);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;
  Mutex sleep_mu_;
  CondVar wake_;
  // Each hot atomic on its own cache line: next_queue_ is written by
  // every submit, pending_ by submitters and all workers — sharing a
  // line would bounce it between cores on every job.
  alignas(64) std::atomic<std::size_t> next_queue_{0};
  alignas(64) std::atomic<std::size_t> pending_{0};
  alignas(64) std::atomic<bool> stop_{false};
};

}  // namespace hydra::util
