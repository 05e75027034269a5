// Thermal-aware thread migration across core tiles.
//
// The single-core paper's DTM slows the hot core down; a many-core die
// has a cheaper option first — move the hot thread to a cool idle tile
// and let the vacated silicon cool passively. This policy is the
// die-level decision function: given each tile's current hottest sensed
// temperature and whether a thread occupies it, it periodically nominates
// one (source, destination) pair. The MulticoreSystem applies the
// mechanism and charges the cost: both tiles stall for
// `cost_cycles`, the source's pipeline is flushed (squashed in-flight
// work), `flush_energy` is added to the source tile's next power
// interval, and the destination pays its cold-cache misses naturally.
//
// Decisions are deliberately conservative and deterministic: migrate only
// when the hottest occupied tile is at/above the DTM trigger AND an idle
// tile exists that is at least `margin` cooler; ties break to the lowest
// tile index. One migration per evaluation keeps the thermal response
// observable between moves (and makes the property "post-migration Tmax
// is bounded by pre-migration Tmax" testable interval by interval).
#pragma once

#include <cstddef>
#include <vector>

#include "core/dtm_policy.h"
#include "util/fields.h"
#include "util/units.h"

namespace hydra::core {

struct MigrationConfig {
  /// Minimum time between migration evaluations. Far coarser than the
  /// sensor period: silicon thermal time constants are milliseconds, so
  /// evaluating faster than the die can respond just thrashes threads.
  util::Seconds interval{0.001};
  /// Context-switch stall charged to BOTH tiles (drain + state transfer).
  std::uint64_t cost_cycles = 10000;
  /// Energy of flushing/transferring architectural state, charged to the
  /// source tile's next thermal interval.
  util::Joules flush_energy{5e-6};
  /// Destination must be at least this much cooler than the source.
  /// Covers sensor noise plus the destination's imminent warm-up, so a
  /// move is only made when it buys real thermal headroom.
  util::CelsiusDelta margin{2.0};
  /// Migration only triggers at/above this source temperature (the DTM
  /// trigger): below it the local policy is not even engaged, so moving
  /// the thread buys nothing.
  util::Celsius trigger{81.8};
};

template <util::FieldsOf<MigrationConfig> Self, class F>
void visit_fields(Self& m, F&& f) {
  f("interval", m.interval);
  f("cost_cycles", m.cost_cycles);
  f("flush_energy", m.flush_energy);
  f("margin", m.margin);
  f("trigger", m.trigger);
}

/// One tile's state as the policy sees it.
struct TileThermalState {
  util::Celsius tmax{};   ///< hottest sensed temperature on the tile
  bool occupied = false;  ///< a thread is currently bound to the tile
};

struct MigrationDecision {
  bool migrate = false;
  std::size_t from = 0;  ///< hottest occupied tile
  std::size_t to = 0;    ///< coolest idle tile
};

class MigrationPolicy {
 public:
  explicit MigrationPolicy(MigrationConfig cfg) : cfg_(cfg) {}

  /// Evaluate at sample time `time` (monotone). Returns at most one
  /// migration; between evaluation intervals always returns no-op.
  MigrationDecision update(const std::vector<TileThermalState>& tiles,
                           util::Seconds time);

  void reset() { next_eval_ = util::Seconds{0.0}; }

  const MigrationConfig& config() const { return cfg_; }

 private:
  MigrationConfig cfg_;
  util::Seconds next_eval_{0.0};
};

}  // namespace hydra::core
