#include "floorplan/multicore.h"

#include <cmath>
#include <deque>
#include <stdexcept>
#include <string>
#include <utility>

#include "floorplan/ev7.h"
#include "util/sync.h"

namespace hydra::floorplan {
namespace {

/// Process-wide interner for generated tile-block names. Block::name is
/// a non-owning string_view (single-core names are string literals), so
/// generated names need storage that outlives every Floorplan copy. A
/// deque never relocates existing elements, so handed-out views stay
/// valid; floorplans are built once per (package, cores) model key and
/// cached, so the interner stays tiny.
std::string_view intern_name(std::string name) {
  static util::Mutex mu;
  static std::deque<std::string> names;
  const util::LockGuard lock(mu);
  for (const std::string& existing : names) {
    if (existing == name) return existing;
  }
  names.push_back(std::move(name));
  return names.back();
}

}  // namespace

TileGrid tile_grid(std::size_t cores) {
  if (cores == 0) {
    throw std::invalid_argument("multicore floorplan needs >= 1 core");
  }
  TileGrid grid{1, cores};
  for (std::size_t d = static_cast<std::size_t>(
           std::sqrt(static_cast<double>(cores)));
       d >= 1; --d) {
    if (cores % d == 0) {
      grid.rows = d;
      grid.cols = cores / d;
      break;
    }
  }
  return grid;
}

Floorplan multicore_floorplan(std::size_t cores) {
  const Floorplan unit = ev7_floorplan();
  if (cores == 1) return unit;
  const TileGrid grid = tile_grid(cores);
  const double die_w = unit.die_width();
  const double die_h = unit.die_height();
  const double sx = 1.0 / static_cast<double>(grid.cols);
  const double sy = 1.0 / static_cast<double>(grid.rows);
  Floorplan fp;
  for (std::size_t t = 0; t < cores; ++t) {
    const std::size_t row = t / grid.cols;
    const std::size_t col = t % grid.cols;
    const double x0 = static_cast<double>(col) * die_w * sx;
    const double y0 = static_cast<double>(row) * die_h * sy;
    for (std::size_t b = 0; b < unit.size(); ++b) {
      const Block& src = unit.block(b);
      Block blk = src;
      // Appended piecewise: GCC 12's -Wrestrict misfires on the
      // equivalent operator+ chain.
      std::string name = "c";
      name += std::to_string(t);
      name += '.';
      name += src.name;
      blk.name = intern_name(std::move(name));
      blk.x = x0 + src.x * sx;
      blk.y = y0 + src.y * sy;
      blk.width = src.width * sx;
      blk.height = src.height * sy;
      fp.add(blk);
    }
  }
  return fp;
}

}  // namespace hydra::floorplan
