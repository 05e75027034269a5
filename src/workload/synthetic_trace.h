// Synthetic instruction-stream generator.
//
// Stands in for the paper's 500M-instruction SimPoint samples of
// SPECcpu2000 Alpha binaries (see DESIGN.md, Substitutions). A profile
// describes the *statistical* structure of a program — instruction mix,
// dependency-distance distribution (which bounds exploitable ILP), branch
// predictability, instruction/data footprints, and a phase schedule — and
// the generator emits a deterministic, seeded stream with those
// statistics. The out-of-order core extracts ILP from this stream exactly
// as it would from a real trace, which is the property the DTM results
// rest on.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "arch/isa.h"
#include "util/fields.h"
#include "util/geometric_table.h"
#include "util/rng.h"

namespace hydra::workload {

/// One program phase; the schedule cycles through phases in order.
struct PhaseSpec {
  std::uint64_t length_instructions = 1'000'000;
  /// Multiplier (> 0) on mean dependency distance; > 1 means more ILP
  /// (hotter, higher IPC), < 1 means serial code.
  double ilp_scale = 1.0;
  /// Multiplier on the probability that a memory access leaves the hot
  /// (L1-resident) region.
  double mem_scale = 1.0;
};

template <util::FieldsOf<PhaseSpec> Self, class F>
void visit_fields(Self& p, F&& f) {
  f("length_instructions", p.length_instructions);
  f("ilp_scale", p.ilp_scale);
  f("mem_scale", p.mem_scale);
}

/// Statistical description of a benchmark.
struct WorkloadProfile {
  std::string name;
  std::uint64_t seed = 1;

  // Instruction mix; must sum to 1 (validated by the generator).
  double frac_int_alu = 0.40;
  double frac_int_mul = 0.02;
  double frac_fp_add = 0.05;
  double frac_fp_mul = 0.03;
  double frac_load = 0.26;
  double frac_store = 0.12;
  double frac_branch = 0.12;

  /// Mean register-dependency distance in dynamic instructions (>= 1).
  /// Distances are drawn geometrically around this mean; larger means
  /// more independent work in flight.
  double mean_dep_distance = 5.0;
  int max_dep_distance = 64;  ///< >= 1
  /// Fraction of ops with two register sources (rest have one).
  double frac_two_src = 0.35;

  /// Fraction of static branches whose outcome is data-dependent noise
  /// (a gshare predictor mispredicts these ~50 % of the time); remaining
  /// branches are strongly biased and learned quickly.
  double hard_branch_fraction = 0.08;

  /// Footprints [bytes]. The instruction footprint is at most 16 MiB.
  std::uint64_t inst_footprint = 48 * 1024;     ///< fits L1I when small
  std::uint64_t data_hot_footprint = 32 * 1024; ///< L1-resident set
  std::uint64_t data_warm_footprint = 128 * 1024;  ///< L2-resident set
  /// Probability a memory access targets the warm (L2) region.
  double warm_access_fraction = 0.03;
  /// Probability a memory access streams past the L2 (compulsory misses).
  double stream_access_fraction = 0.001;

  std::vector<PhaseSpec> phases;  ///< empty = single uniform phase

  /// Validate internal consistency; throws std::invalid_argument.
  void validate() const;
};

template <util::FieldsOf<WorkloadProfile> Self, class F>
void visit_fields(Self& p, F&& f) {
  f("name", p.name);
  f("seed", p.seed);
  f("frac_int_alu", p.frac_int_alu);
  f("frac_int_mul", p.frac_int_mul);
  f("frac_fp_add", p.frac_fp_add);
  f("frac_fp_mul", p.frac_fp_mul);
  f("frac_load", p.frac_load);
  f("frac_store", p.frac_store);
  f("frac_branch", p.frac_branch);
  f("mean_dep_distance", p.mean_dep_distance);
  f("max_dep_distance", p.max_dep_distance);
  f("frac_two_src", p.frac_two_src);
  f("hard_branch_fraction", p.hard_branch_fraction);
  f("inst_footprint", p.inst_footprint);
  f("data_hot_footprint", p.data_hot_footprint);
  f("data_warm_footprint", p.data_warm_footprint);
  f("warm_access_fraction", p.warm_access_fraction);
  f("stream_access_fraction", p.stream_access_fraction);
  f("phases", p.phases);
}

/// Deterministic trace source implementing the profile.
///
/// Ops are generated 64 at a time into a buffer the trace owns (so it
/// moves with the trace when a thread migrates), from tables: a 4-bit
/// class per 4-byte instruction slot, filled on the slot's first visit
/// (the class is a pure function of pc), and per phase an exact
/// GeometricTable of the dependency-distance draw plus the memory-region
/// probabilities, built at construction. The
/// stream is the per-op generator's, field by field
/// (tests/trace_reference.h holds that generator as the reference twin).
class SyntheticTrace final : public arch::TraceSource {
 public:
  explicit SyntheticTrace(const WorkloadProfile& profile);

  arch::MicroOp next() override {
    if (pos_ == kBuffer) refill();
    return buffer_[pos_++];
  }

  /// Index of the phase the next instruction belongs to.
  std::size_t current_phase() const {
    return pos_ < kBuffer ? buffer_phase_[pos_] : phase_index_;
  }

 private:
  static constexpr std::size_t kBuffer = 64;

  /// Per-phase draw tables.
  struct PhaseTables {
    util::GeometricTable dep;  ///< dependency distance - 1
    double stream_p;           ///< memory access streams past the L2
    double stream_or_warm_p;   ///< stream_p + the warm-region probability
  };

  void refill();
  std::uint64_t pick_data_address(const PhaseTables& ph);

  WorkloadProfile profile_;
  util::Rng rng_;
  std::vector<PhaseTables> tables_;       ///< one per phase (>= 1)
  std::vector<std::uint8_t> slot_class_;  ///< 4 bits per 4-byte slot
  std::size_t phase_index_ = 0;           ///< phase of the next op generated
  std::uint64_t phase_remaining_ = 0;
  std::uint64_t pc_offset_ = 0;           ///< next pc - the text base
  std::uint64_t stream_cursor_ = 0;
  std::size_t pos_ = kBuffer;             ///< next buffered op to return
  std::array<arch::MicroOp, kBuffer> buffer_{};
  std::array<std::uint32_t, kBuffer> buffer_phase_{};
};

}  // namespace hydra::workload
