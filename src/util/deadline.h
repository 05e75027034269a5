// A per-job wall-clock deadline, polled cooperatively.
//
// The experiment engine may give each memoized run a timeout
// (ExperimentRunner::set_job_timeout). The job builds a Deadline from
// it, and the running simulation polls it at thermal-interval
// granularity and unwinds with a typed TimeoutError, so a stuck or
// diverging job can never wedge a pool worker forever while siblings
// starve. util sits at the dependency root: no obs here; the layers
// above count these events.
#pragma once

#include <chrono>
#include <stdexcept>
#include <string>

#include "util/units.h"

namespace hydra::util {

/// A run outlived its per-job deadline.
class TimeoutError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Deadline {
 public:
  /// Never expires.
  Deadline() = default;

  /// Expires `timeout` from now; zero or negative never expires.
  explicit Deadline(Seconds timeout) : armed_(timeout.value() > 0.0) {
    if (armed_) {
      at_ = std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(timeout.value()));
    }
  }

  /// Throw TimeoutError once expired. `what` names the work being
  /// abandoned (benchmark/policy) so the failure that surfaces from a
  /// future is self-describing.
  void throw_if_expired(const std::string& what) const {
    if (armed_ && std::chrono::steady_clock::now() >= at_) {
      throw TimeoutError("deadline exceeded: " + what);
    }
  }

 private:
  bool armed_ = false;
  std::chrono::steady_clock::time_point at_{};
};

}  // namespace hydra::util
