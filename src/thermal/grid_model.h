// Grid-mode thermal model (HotSpot's finer-grained alternative to the
// block model).
//
// The die is discretised into rows x cols rectangular cells; each cell
// is one RC node with lateral resistances to its four neighbours and a
// vertical path into the shared spreader/sink package stack. Block power
// is distributed onto cells in proportion to geometric overlap, and cell
// temperatures can be aggregated back to per-block values (area-weighted)
// or inspected directly for intra-block gradients the block model cannot
// resolve.
#pragma once

#include <cstddef>
#include <vector>

#include "floorplan/floorplan.h"
#include "thermal/package.h"
#include "thermal/rc_network.h"

namespace hydra::thermal {

struct GridModelConfig {
  std::size_t rows = 16;
  std::size_t cols = 16;
};

class GridThermalModel {
 public:
  /// Build from a floorplan that tiles its bounding box.
  GridThermalModel(const floorplan::Floorplan& fp, const Package& pkg,
                   const GridModelConfig& cfg = {});

  const RcNetwork& network() const { return network_; }
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t num_cells() const { return rows_ * cols_; }
  std::size_t cell_node(std::size_t row, std::size_t col) const {
    return row * cols_ + col;
  }

  /// Distribute per-block power [W] onto cells by area overlap; package
  /// nodes get zero. Result size == network().size().
  Vector expand_power(const Vector& block_power) const;

  /// Area-weighted per-block mean temperature from a full node vector.
  Vector block_temperatures(const Vector& node_celsius) const;

  /// Hottest cell in a full node vector.
  double max_cell_temperature(const Vector& node_celsius) const;

  /// Fraction of cell (row, col)'s area covered by block `b`.
  double overlap_fraction(std::size_t row, std::size_t col,
                          std::size_t block) const {
    return overlap_[cell_node(row, col)][block];
  }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::size_t num_blocks_;
  RcNetwork network_;
  /// overlap_[cell][block] = fraction of the cell covered by the block.
  std::vector<std::vector<double>> overlap_;
  std::vector<double> block_area_;
  double cell_area_m2_ = 0.0;
};

}  // namespace hydra::thermal
