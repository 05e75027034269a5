#include "workload/synthetic_trace.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hydra::workload {

using arch::MicroOp;
using arch::OpClass;

void WorkloadProfile::validate() const {
  const double mix = frac_int_alu + frac_int_mul + frac_fp_add + frac_fp_mul +
                     frac_load + frac_store + frac_branch;
  if (std::abs(mix - 1.0) > 1e-9) {
    throw std::invalid_argument("profile '" + name +
                                "': instruction mix must sum to 1");
  }
  if (mean_dep_distance < 1.0) {
    throw std::invalid_argument("profile '" + name +
                                "': mean dependency distance must be >= 1");
  }
  if (inst_footprint < 4096 || data_hot_footprint < 4096) {
    throw std::invalid_argument("profile '" + name +
                                "': footprints implausibly small");
  }
  if (warm_access_fraction < 0.0 || stream_access_fraction < 0.0 ||
      warm_access_fraction + stream_access_fraction > 1.0) {
    throw std::invalid_argument("profile '" + name +
                                "': bad memory-region fractions");
  }
  for (const PhaseSpec& p : phases) {
    if (p.length_instructions == 0 || p.ilp_scale <= 0.0 ||
        p.mem_scale < 0.0) {
      throw std::invalid_argument("profile '" + name + "': bad phase spec");
    }
  }
}

SyntheticTrace::SyntheticTrace(const WorkloadProfile& profile)
    : profile_(profile), rng_(profile.seed) {
  profile_.validate();
  pc_ = 0x12000000;  // arbitrary text base
  if (!profile_.phases.empty()) {
    phase_remaining_ = profile_.phases[0].length_instructions;
  }
}

const PhaseSpec& SyntheticTrace::phase() const {
  if (profile_.phases.empty()) return default_phase_;
  return profile_.phases[phase_index_];
}

void SyntheticTrace::advance_phase() {
  if (profile_.phases.empty()) return;
  if (phase_remaining_ > 0) {
    --phase_remaining_;
    return;
  }
  phase_index_ = (phase_index_ + 1) % profile_.phases.size();
  phase_remaining_ = profile_.phases[phase_index_].length_instructions;
}

std::uint64_t SyntheticTrace::pick_data_address(double mem_scale) {
  const double warm_p =
      std::min(1.0, profile_.warm_access_fraction * mem_scale);
  const double stream_p =
      std::min(1.0 - warm_p, profile_.stream_access_fraction * mem_scale);
  const double r = rng_.uniform();
  constexpr std::uint64_t kDataBase = 0x40000000;
  constexpr std::uint64_t kWarmBase = 0x50000000;
  constexpr std::uint64_t kStreamBase = 0x60000000;
  if (r < stream_p) {
    // Streaming: strided walk through fresh memory, always misses the L2
    // once past its capacity.
    stream_cursor_ += 64;
    return kStreamBase + stream_cursor_;
  }
  if (r < stream_p + warm_p) {
    // Warm region: random within an L2-resident set (8-byte aligned).
    return kWarmBase + (rng_.below(profile_.data_warm_footprint / 8) * 8);
  }
  return kDataBase + (rng_.below(profile_.data_hot_footprint / 8) * 8);
}

MicroOp SyntheticTrace::next() {
  const PhaseSpec& ph = phase();

  MicroOp op;
  // --- Opcode class ---------------------------------------------------
  // Deterministic per pc: the synthetic program has *static* structure
  // (a given instruction slot is always the same kind of instruction),
  // which is what lets branch predictors and caches train — dynamic
  // behaviour (dependencies, addresses, outcomes) still varies per visit.
  // splitmix64 finaliser: full avalanche so neighbouring slots get
  // independent classes (a weak mixer makes classes form runs in pc
  // space, which biases which slots control flow actually visits).
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

  // --- Register dependencies -------------------------------------------
  // Geometric distances around the phase-scaled mean; distance counts in
  // dynamic instructions back to the producer.
  const double mean = std::max(1.0, profile_.mean_dep_distance * ph.ilp_scale);
  const double p = 1.0 / mean;  // geometric success probability
  op.num_srcs = (op.cls == OpClass::kBranch || op.cls == OpClass::kStore ||
                 rng_.chance(profile_.frac_two_src))
                    ? 2
                    : 1;
  if (op.cls == OpClass::kLoad) op.num_srcs = 1;  // address register
  for (int s = 0; s < op.num_srcs; ++s) {
    const int dist = rng_.geometric(p, profile_.max_dep_distance - 1) + 1;
    op.src_dist[s] = dist;
  }

  // --- PC walk ----------------------------------------------------------
  op.pc = pc_;
  const std::uint64_t text_base = 0x12000000;
  if (op.cls == OpClass::kBranch) {
    // Per-static-branch behaviour derived from a hash of the pc: a
    // fraction of branches are data-dependent noise, the rest strongly
    // biased (predictable once learned). Branch slots are stable (the
    // class above is a function of pc), so the predictor sees each
    // static branch repeatedly.
    const std::uint64_t h = ((op.pc >> 2) * 0x9e3779b97f4a7c15ULL) >> 40;
    const bool hard =
        static_cast<double>(h & 0xff) / 256.0 < profile_.hard_branch_fraction;
    if (hard) {
      op.branch_taken = rng_.chance(0.5);
    } else {
      const bool bias_taken = (h & 0x100) != 0;
      op.branch_taken = rng_.chance(bias_taken ? 0.97 : 0.03);
    }
    if (op.branch_taken) {
      // Jump somewhere within the instruction footprint (64-bit aligned
      // bundles keep the I-cache line behaviour realistic).
      pc_ = text_base + (rng_.below(profile_.inst_footprint / 16) * 16);
    } else {
      pc_ += 4;
    }
  } else {
    pc_ += 4;
  }
  if (pc_ >= text_base + profile_.inst_footprint) pc_ = text_base;

  // --- Memory address ----------------------------------------------------
  if (op.cls == OpClass::kLoad || op.cls == OpClass::kStore) {
    op.mem_addr = pick_data_address(ph.mem_scale);
  }

  advance_phase();
  return op;
}

}  // namespace hydra::workload
