// Per-op reference generator for workload::SyntheticTrace.
//
// This is the synthetic trace as it was written before the table-driven
// fill: every op hashes its pc for the class, evaluates log1p per
// geometric dependency draw and recomputes the phase constants. The
// production trace must emit the same stream field by field
// (trace_table_test.cc), so this twin pins every simulated bit the
// tables replaced.
#pragma once

#include <algorithm>
#include <cstdint>

#include "arch/isa.h"
#include "util/rng.h"
#include "workload/synthetic_trace.h"

namespace hydra::workload {

class ReferenceTrace {
 public:
  explicit ReferenceTrace(const WorkloadProfile& profile)
      : profile_(profile), rng_(profile.seed) {
    profile_.validate();
    if (!profile_.phases.empty()) {
      phase_remaining_ = profile_.phases[0].length_instructions;
    }
  }

  std::size_t current_phase() const { return phase_index_; }

  arch::MicroOp next() {
    using arch::OpClass;
    const PhaseSpec& ph = phase();

    arch::MicroOp op;
    // Class: a pure function of pc (splitmix64 finaliser of the slot).
    std::uint64_t z = (pc_ >> 2) + profile_.seed * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    const double r = static_cast<double>(z >> 11) * 0x1.0p-53;
    double acc = profile_.frac_int_alu;
    if (r < acc) {
      op.cls = OpClass::kIntAlu;
    } else if (r < (acc += profile_.frac_int_mul)) {
      op.cls = OpClass::kIntMul;
    } else if (r < (acc += profile_.frac_fp_add)) {
      op.cls = OpClass::kFpAdd;
    } else if (r < (acc += profile_.frac_fp_mul)) {
      op.cls = OpClass::kFpMul;
    } else if (r < (acc += profile_.frac_load)) {
      op.cls = OpClass::kLoad;
    } else if (r < (acc += profile_.frac_store)) {
      op.cls = OpClass::kStore;
    } else {
      op.cls = OpClass::kBranch;
    }

    // Register dependencies: geometric around the phase-scaled mean.
    const double mean =
        std::max(1.0, profile_.mean_dep_distance * ph.ilp_scale);
    const double p = 1.0 / mean;
    op.num_srcs = (op.cls == OpClass::kBranch || op.cls == OpClass::kStore ||
                   rng_.chance(profile_.frac_two_src))
                      ? 2
                      : 1;
    if (op.cls == OpClass::kLoad) op.num_srcs = 1;
    for (int s = 0; s < op.num_srcs; ++s) {
      op.src_dist[s] = rng_.geometric(p, profile_.max_dep_distance - 1) + 1;
    }

    // PC walk.
    op.pc = pc_;
    if (op.cls == OpClass::kBranch) {
      const std::uint64_t h = ((op.pc >> 2) * 0x9e3779b97f4a7c15ULL) >> 40;
      const bool hard = static_cast<double>(h & 0xff) / 256.0 <
                        profile_.hard_branch_fraction;
      if (hard) {
        op.branch_taken = rng_.chance(0.5);
      } else {
        const bool bias_taken = (h & 0x100) != 0;
        op.branch_taken = rng_.chance(bias_taken ? 0.97 : 0.03);
      }
      if (op.branch_taken) {
        pc_ = kTextBase + (rng_.below(profile_.inst_footprint / 16) * 16);
      } else {
        pc_ += 4;
      }
    } else {
      pc_ += 4;
    }
    if (pc_ >= kTextBase + profile_.inst_footprint) pc_ = kTextBase;

    if (op.cls == OpClass::kLoad || op.cls == OpClass::kStore) {
      op.mem_addr = pick_data_address(ph.mem_scale);
    }

    advance_phase();
    return op;
  }

 private:
  static constexpr std::uint64_t kTextBase = 0x12000000;

  const PhaseSpec& phase() const {
    if (profile_.phases.empty()) return default_phase_;
    return profile_.phases[phase_index_];
  }

  void advance_phase() {
    if (profile_.phases.empty()) return;
    if (phase_remaining_ > 0) {
      --phase_remaining_;
      return;
    }
    phase_index_ = (phase_index_ + 1) % profile_.phases.size();
    phase_remaining_ = profile_.phases[phase_index_].length_instructions;
  }

  std::uint64_t pick_data_address(double mem_scale) {
    const double warm_p =
        std::min(1.0, profile_.warm_access_fraction * mem_scale);
    const double stream_p =
        std::min(1.0 - warm_p, profile_.stream_access_fraction * mem_scale);
    const double r = rng_.uniform();
    if (r < stream_p) {
      stream_cursor_ += 64;
      return 0x60000000 + stream_cursor_;
    }
    if (r < stream_p + warm_p) {
      return 0x50000000 + (rng_.below(profile_.data_warm_footprint / 8) * 8);
    }
    return 0x40000000 + (rng_.below(profile_.data_hot_footprint / 8) * 8);
  }

  WorkloadProfile profile_;
  util::Rng rng_;
  std::size_t phase_index_ = 0;
  std::uint64_t phase_remaining_ = 0;
  std::uint64_t pc_ = kTextBase;
  std::uint64_t stream_cursor_ = 0;
  PhaseSpec default_phase_{};
};

}  // namespace hydra::workload
