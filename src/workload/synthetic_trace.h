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

#include <cstdint>
#include <string>
#include <vector>

#include "arch/isa.h"
#include "util/fields.h"
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
  int max_dep_distance = 64;
  /// Fraction of ops with two register sources (rest have one).
  double frac_two_src = 0.35;

  /// Fraction of static branches whose outcome is data-dependent noise
  /// (a gshare predictor mispredicts these ~50 % of the time); remaining
  /// branches are strongly biased and learned quickly.
  double hard_branch_fraction = 0.08;

  /// Footprints [bytes].
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
class SyntheticTrace final : public arch::TraceSource {
 public:
  explicit SyntheticTrace(const WorkloadProfile& profile);

  arch::MicroOp next() override;

  std::uint64_t generated() const { return count_; }
  /// Index of the phase the next instruction belongs to.
  std::size_t current_phase() const { return phase_index_; }

 private:
  const PhaseSpec& phase() const;
  void advance_phase();
  std::uint64_t pick_data_address(double mem_scale);

  WorkloadProfile profile_;
  util::Rng rng_;
  std::uint64_t count_ = 0;
  std::size_t phase_index_ = 0;
  std::uint64_t phase_remaining_ = 0;
  std::uint64_t pc_;
  std::uint64_t stream_cursor_ = 0;
  PhaseSpec default_phase_{};
};

}  // namespace hydra::workload
