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
  // At 0 every op would depend on itself and the core could never issue.
  if (max_dep_distance < 1) {
    throw std::invalid_argument("profile '" + name +
                                "': max dependency distance must be >= 1");
  }
  if (inst_footprint < 4096 || data_hot_footprint < 4096) {
    throw std::invalid_argument("profile '" + name +
                                "': footprints implausibly small");
  }
  // The trace tables a class per 4-byte instruction slot.
  if (inst_footprint > 16 * 1024 * 1024) {
    throw std::invalid_argument("profile '" + name +
                                "': instruction footprint implausibly large");
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

namespace {

constexpr std::uint64_t kTextBase = 0x12000000;  // arbitrary text base
constexpr unsigned kUnknownClass = 0xf;  ///< slot not yet visited

/// Class of the instruction at `pc`. Deterministic per pc: the synthetic
/// program has *static* structure (a given instruction slot is always the
/// same kind of instruction), which is what lets branch predictors and
/// caches train — dynamic behaviour (dependencies, addresses, outcomes)
/// still varies per visit. splitmix64 finaliser: full avalanche so
/// neighbouring slots get independent classes (a weak mixer makes classes
/// form runs in pc space, which biases which slots control flow actually
/// visits).
OpClass class_of(const WorkloadProfile& p, std::uint64_t pc) {
  std::uint64_t z = (pc >> 2) + p.seed * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  const double r = static_cast<double>(z >> 11) * 0x1.0p-53;
  double acc = p.frac_int_alu;
  if (r < acc) return OpClass::kIntAlu;
  if (r < (acc += p.frac_int_mul)) return OpClass::kIntMul;
  if (r < (acc += p.frac_fp_add)) return OpClass::kFpAdd;
  if (r < (acc += p.frac_fp_mul)) return OpClass::kFpMul;
  if (r < (acc += p.frac_load)) return OpClass::kLoad;
  if (r < (acc += p.frac_store)) return OpClass::kStore;
  return OpClass::kBranch;
}

}  // namespace

SyntheticTrace::SyntheticTrace(const WorkloadProfile& profile)
    : profile_(profile), rng_(profile.seed) {
  profile_.validate();
  const PhaseSpec uniform_phase{};
  const std::size_t n_phases = std::max<std::size_t>(1, profile_.phases.size());
  tables_.reserve(n_phases);
  for (std::size_t i = 0; i < n_phases; ++i) {
    const PhaseSpec& ph =
        profile_.phases.empty() ? uniform_phase : profile_.phases[i];
    // Geometric distances around the phase-scaled mean; distance counts
    // in dynamic instructions back to the producer.
    const double mean =
        std::max(1.0, profile_.mean_dep_distance * ph.ilp_scale);
    const double warm_p =
        std::min(1.0, profile_.warm_access_fraction * ph.mem_scale);
    const double stream_p =
        std::min(1.0 - warm_p, profile_.stream_access_fraction * ph.mem_scale);
    tables_.push_back({util::GeometricTable(1.0 / mean,
                                            profile_.max_dep_distance - 1),
                       stream_p, stream_p + warm_p});
  }
  // Every slot starts unknown; refill() hashes a slot on its first visit
  // (hashing all of them here made building a 64-core die measurably
  // slower).
  const std::uint64_t slots = (profile_.inst_footprint + 3) / 4;
  slot_class_.assign((slots + 1) / 2, 0xff);
  if (!profile_.phases.empty()) {
    phase_remaining_ = profile_.phases[0].length_instructions;
  }
}

std::uint64_t SyntheticTrace::pick_data_address(const PhaseTables& ph) {
  const double r = rng_.uniform();
  constexpr std::uint64_t kDataBase = 0x40000000;
  constexpr std::uint64_t kWarmBase = 0x50000000;
  constexpr std::uint64_t kStreamBase = 0x60000000;
  if (r < ph.stream_p) {
    // Streaming: strided walk through fresh memory, always misses the L2
    // once past its capacity.
    stream_cursor_ += 64;
    return kStreamBase + stream_cursor_;
  }
  if (r < ph.stream_or_warm_p) {
    // Warm region: random within an L2-resident set (8-byte aligned).
    return kWarmBase + (rng_.below(profile_.data_warm_footprint / 8) * 8);
  }
  return kDataBase + (rng_.below(profile_.data_hot_footprint / 8) * 8);
}

void SyntheticTrace::refill() {
  const std::uint64_t footprint = profile_.inst_footprint;
  for (std::size_t i = 0; i < kBuffer; ++i) {
    const PhaseTables& ph = tables_[phase_index_];
    MicroOp& op = buffer_[i];
    buffer_phase_[i] = static_cast<std::uint32_t>(phase_index_);

    const std::uint64_t slot = pc_offset_ >> 2;
    std::uint8_t& packed = slot_class_[slot >> 1];
    const unsigned shift = 4 * static_cast<unsigned>(slot & 1);
    unsigned nibble = (packed >> shift) & 0xfu;
    if (nibble == kUnknownClass) {
      nibble =
          static_cast<unsigned>(class_of(profile_, kTextBase + pc_offset_));
      packed = static_cast<std::uint8_t>((packed & ~(0xfu << shift)) |
                                         (nibble << shift));
    }
    const auto cls = static_cast<OpClass>(nibble);
    op.cls = cls;

    // --- Register dependencies -----------------------------------------
    int num_srcs = 2;
    if (cls != OpClass::kBranch && cls != OpClass::kStore) {
      const bool two = rng_.chance(profile_.frac_two_src);
      num_srcs = cls == OpClass::kLoad || !two ? 1 : 2;  // load: address reg
    }
    op.num_srcs = static_cast<std::uint8_t>(num_srcs);
    op.src_dist[0] = ph.dep.draw(rng_) + 1;
    op.src_dist[1] = num_srcs == 2 ? ph.dep.draw(rng_) + 1 : 0;

    // --- PC walk --------------------------------------------------------
    op.pc = kTextBase + pc_offset_;
    op.branch_taken = false;
    pc_offset_ += 4;
    if (cls == OpClass::kBranch) {
      // Per-static-branch behaviour derived from a hash of the pc: a
      // fraction of branches are data-dependent noise, the rest strongly
      // biased (predictable once learned). Branch slots are stable (the
      // class is a function of pc), so the predictor sees each static
      // branch repeatedly.
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
        // Jump somewhere within the instruction footprint (64-bit aligned
        // bundles keep the I-cache line behaviour realistic).
        pc_offset_ = rng_.below(footprint / 16) * 16;
      }
    }
    if (pc_offset_ >= footprint) pc_offset_ = 0;

    // --- Memory address -------------------------------------------------
    op.mem_addr = cls == OpClass::kLoad || cls == OpClass::kStore
                      ? pick_data_address(ph)
                      : 0;

    // --- Phase schedule -------------------------------------------------
    if (!profile_.phases.empty()) {
      if (phase_remaining_ > 0) {
        --phase_remaining_;
      } else {
        phase_index_ = (phase_index_ + 1) % profile_.phases.size();
        phase_remaining_ = profile_.phases[phase_index_].length_instructions;
      }
    }
  }
  pos_ = 0;
}

}  // namespace hydra::workload
