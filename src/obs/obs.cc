#include "obs/obs.h"

#include <cstdio>

#include "util/thread_pool.h"

namespace hydra::obs {

Observability& Observability::instance() {
  static Observability obs;
  // Pool hooks, installed here (after `obs` is constructed, so a hook
  // may safely call instance() from a worker) and only once. The first
  // names pool workers' trace lanes; workers spawned before the first
  // obs use keep their default "thread-N" lane names. The second counts
  // every exception a worker loop contains (a raw submit() job that
  // threw), whenever the worker was spawned.
  static const bool hook_installed = [] {
    util::ThreadPool::set_worker_start_hook(+[](std::size_t index) {
      char name[32];
      std::snprintf(name, sizeof(name), "pool-worker-%zu", index);
      Observability::instance().tracer().set_thread_name(name);
    });
    util::ThreadPool::set_job_failure_hook(+[](const char*) {
      static const Counter contained =
          obs::metrics().counter("pool.contained_exceptions");
      contained.add();
    });
    return true;
  }();
  (void)hook_installed;
  return obs;
}

}  // namespace hydra::obs
