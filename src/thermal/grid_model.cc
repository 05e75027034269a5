#include "thermal/grid_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "thermal/package_builder.h"

namespace hydra::thermal {
namespace {

double interval_overlap(double a0, double a1, double b0, double b1) {
  return std::max(0.0, std::min(a1, b1) - std::max(a0, b0));
}

}  // namespace

GridThermalModel::GridThermalModel(const floorplan::Floorplan& fp,
                                   const Package& pkg,
                                   const GridModelConfig& cfg)
    : rows_(cfg.rows), cols_(cfg.cols), num_blocks_(fp.size()) {
  if (rows_ < 2 || cols_ < 2) {
    throw std::invalid_argument("grid must be at least 2x2");
  }
  if (fp.size() == 0 || !fp.covers_die(1e-6)) {
    throw std::invalid_argument(
        "grid model needs a floorplan that tiles its bounding box");
  }

  const double die_w = fp.die_width();
  const double die_h = fp.die_height();
  const double cell_w = die_w / static_cast<double>(cols_);
  const double cell_h = die_h / static_cast<double>(rows_);
  const double cell_area = cell_w * cell_h;
  cell_area_m2_ = cell_area;

  // --- Cell nodes --------------------------------------------------------
  const util::JoulesPerKelvin cell_cap(pkg.c_silicon * cell_area *
                                       pkg.die_thickness_m);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      network_.add_node(
          "cell_" + std::to_string(r) + "_" + std::to_string(c), cell_cap);
    }
  }

  // Lateral resistances between neighbouring cells.
  const util::KelvinPerWatt r_horizontal(
      cell_w / (pkg.k_silicon * pkg.die_thickness_m * cell_h));
  const util::KelvinPerWatt r_vertical(
      cell_h / (pkg.k_silicon * pkg.die_thickness_m * cell_w));
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      if (c + 1 < cols_) {
        network_.connect(cell_node(r, c), cell_node(r, c + 1), r_horizontal);
      }
      if (r + 1 < rows_) {
        network_.connect(cell_node(r, c), cell_node(r + 1, c), r_vertical);
      }
    }
  }

  // --- Package -------------------------------------------------------------
  const PackageNodes package =
      attach_package_nodes(network_, die_w, die_h, pkg);
  const util::KelvinPerWatt r_cell_vertical =
      die_to_spreader_resistance(cell_area, pkg);
  for (std::size_t i = 0; i < num_cells(); ++i) {
    network_.connect(i, package.spreader_center, r_cell_vertical);
  }

  // --- Block <-> cell overlap map -------------------------------------------
  overlap_.assign(num_cells(), std::vector<double>(num_blocks_, 0.0));
  block_area_.assign(num_blocks_, 0.0);
  for (std::size_t b = 0; b < num_blocks_; ++b) {
    block_area_[b] = fp.block(b).area();
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      const double x0 = static_cast<double>(c) * cell_w;
      const double y0 = static_cast<double>(r) * cell_h;
      for (std::size_t b = 0; b < num_blocks_; ++b) {
        const floorplan::Block& blk = fp.block(b);
        const double ox =
            interval_overlap(x0, x0 + cell_w, blk.x, blk.right());
        const double oy =
            interval_overlap(y0, y0 + cell_h, blk.y, blk.top());
        overlap_[cell_node(r, c)][b] = ox * oy / cell_area;
      }
    }
  }
}

Vector GridThermalModel::expand_power(const Vector& block_power) const {
  if (block_power.size() != num_blocks_) {
    throw std::invalid_argument("block power vector has wrong size");
  }
  Vector full(network_.size(), 0.0);
  for (std::size_t cell = 0; cell < num_cells(); ++cell) {
    double w = 0.0;
    for (std::size_t b = 0; b < num_blocks_; ++b) {
      const double frac = overlap_[cell][b];
      if (frac <= 0.0) continue;
      // Power density of block b times the overlap area (frac is the
      // cell-area share, so the overlap area is frac * cell_area_m2_).
      w += block_power[b] / block_area_[b] * frac * cell_area_m2_;
    }
    full[cell] = w;
  }
  return full;
}

Vector GridThermalModel::block_temperatures(const Vector& node_celsius) const {
  if (node_celsius.size() != network_.size()) {
    throw std::invalid_argument("node temperature vector has wrong size");
  }
  Vector out(num_blocks_, 0.0);
  Vector weight(num_blocks_, 0.0);
  for (std::size_t cell = 0; cell < num_cells(); ++cell) {
    for (std::size_t b = 0; b < num_blocks_; ++b) {
      const double frac = overlap_[cell][b];
      if (frac <= 0.0) continue;
      out[b] += node_celsius[cell] * frac;
      weight[b] += frac;
    }
  }
  for (std::size_t b = 0; b < num_blocks_; ++b) {
    if (weight[b] > 0.0) out[b] /= weight[b];
  }
  return out;
}

double GridThermalModel::max_cell_temperature(
    const Vector& node_celsius) const {
  double m = node_celsius[0];
  for (std::size_t i = 1; i < num_cells(); ++i) {
    m = std::max(m, node_celsius[i]);
  }
  return m;
}

}  // namespace hydra::thermal
