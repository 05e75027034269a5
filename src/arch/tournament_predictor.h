// Alpha-21264-style tournament branch predictor.
//
// Three structures, as in the real 21264 front end:
//  * a local predictor: per-branch history table feeding a table of
//    3-bit saturating counters,
//  * a global predictor: 2-bit counters indexed by global history,
//  * a chooser: 2-bit counters (also indexed by global history) that
//    select which component to trust per prediction.
// The component sizes default to the 21264's (1K x 10-bit local
// histories, 1K 3-bit local counters, 4K global and 4K chooser
// entries).
//
// The cycle-level core accepts either this or the simpler gshare
// (CoreConfig::predictor); the DTM results are robust to the choice
// (see bench/abl_fidelity), which is itself a useful finding.
#pragma once

#include <cstdint>
#include <vector>

#include "util/fields.h"

namespace hydra::arch {

struct TournamentConfig {
  int local_history_bits = 10;   ///< bits per local history register
  int local_table_bits = 10;     ///< log2 entries of both local tables
  int global_bits = 12;          ///< log2 entries of global/chooser tables
};

template <util::FieldsOf<TournamentConfig> Self, class F>
void visit_fields(Self& c, F&& f) {
  f("local_history_bits", c.local_history_bits);
  f("local_table_bits", c.local_table_bits);
  f("global_bits", c.global_bits);
}

class TournamentPredictor {
 public:
  explicit TournamentPredictor(const TournamentConfig& cfg = {});

  bool predict(std::uint64_t pc) const;
  void update(std::uint64_t pc, bool taken);

  /// Fraction of recent predictions served by the global component
  /// (diagnostics for tests).
  double global_usage() const {
    return chooser_decisions_ == 0
               ? 0.0
               : static_cast<double>(global_chosen_) /
                     static_cast<double>(chooser_decisions_);
  }

 private:
  std::size_t local_index(std::uint64_t pc) const;
  std::size_t global_index() const;
  std::size_t chooser_index(std::uint64_t pc) const;

  TournamentConfig cfg_;
  std::uint64_t local_history_mask_;
  std::uint64_t global_mask_;
  std::uint64_t global_history_ = 0;
  std::vector<std::uint16_t> local_history_;  ///< per-branch histories
  std::vector<std::uint8_t> local_counters_;  ///< 3-bit
  std::vector<std::uint8_t> global_counters_; ///< 2-bit
  std::vector<std::uint8_t> chooser_;         ///< 2-bit, pc-indexed: >=2 -> global
  mutable std::uint64_t chooser_decisions_ = 0;
  mutable std::uint64_t global_chosen_ = 0;
};

}  // namespace hydra::arch
