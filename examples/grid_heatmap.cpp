// Render an ASCII heat map of the die using the grid-mode thermal model:
// run a benchmark briefly to get its per-block power, solve the grid
// steady state, and print cell temperatures as shaded characters — the
// spatial-gradient picture the paper's Section 2 describes (hotspots
// from power-density variation across units).
//
// Usage: grid_heatmap [benchmark] [rows=24] [cols=48]
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "arch/core.h"
#include "floorplan/ev7.h"
#include "power/power_model.h"
#include "thermal/grid_model.h"
#include "util/units.h"
#include "thermal/solver.h"
#include "util/config.h"
#include "workload/spec_profiles.h"

using namespace hydra;

int main(int argc, char** argv) {
  std::string bench = "crafty";
  std::vector<std::string> overrides;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.find('=') == std::string::npos) {
      bench = arg;
    } else {
      overrides.push_back(arg);
    }
  }
  try {
    const util::Config cfg = util::Config::from_args(overrides);
    const auto rows = cfg.get<std::size_t>("rows", 24);
    const auto cols = cfg.get<std::size_t>("cols", 48);

    // Representative activity for the benchmark.
    const workload::WorkloadProfile profile =
        workload::spec2000_profile(bench);
    workload::SyntheticTrace trace(profile);
    arch::CoreConfig core_cfg;
    arch::Core core(core_cfg, trace);
    while (core.committed() < 300'000) core.cycle();
    core.take_interval_activity();
    while (core.committed() < 1'200'000) core.cycle();
    const arch::ActivityFrame frame = core.take_interval_activity();

    const floorplan::Floorplan fp = floorplan::ev7_floorplan();
    const power::PowerModel pm(fp, power::EnergyModel{});
    const thermal::Package pkg;
    const thermal::GridThermalModel grid(fp, pkg, {rows, cols});

    // Power <-> temperature fixed point on block temps.
    thermal::Vector node_t(grid.network().size(), 75.0);
    std::vector<double> watts;
    for (int it = 0; it < 10; ++it) {
      const thermal::Vector block_t = grid.block_temperatures(node_t);
      watts = pm.block_power(frame, util::Volts(1.3), util::Hertz(3.0e9),
                             block_t);
      node_t = thermal::steady_state(grid.network(),
                                     grid.expand_power(watts),
                                     util::Celsius(45.0));
    }

    double lo = 1e9;
    double hi = -1e9;
    for (std::size_t i = 0; i < grid.num_cells(); ++i) {
      lo = std::min(lo, node_t[i]);
      hi = std::max(hi, node_t[i]);
    }

    std::printf("== %s steady-state die heat map (%zux%zu cells) ==\n",
                bench.c_str(), rows, cols);
    std::printf("range: %.2f C (.) .. %.2f C (@)\n\n", lo, hi);
    static const char kShades[] = " .:-=+*#%@";
    for (std::size_t r = rows; r-- > 0;) {  // print top row first
      for (std::size_t c = 0; c < cols; ++c) {
        const double t = node_t[grid.cell_node(r, c)];
        const int idx = static_cast<int>((t - lo) / (hi - lo + 1e-9) * 9.0);
        std::putchar(kShades[idx]);
      }
      std::putchar('\n');
    }

    const thermal::Vector block_t = grid.block_temperatures(node_t);
    std::printf("\nhottest blocks:\n");
    std::vector<std::size_t> order(fp.size());
    for (std::size_t i = 0; i < fp.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return block_t[a] > block_t[b];
    });
    for (std::size_t i = 0; i < 5; ++i) {
      std::printf("  %-8s %6.2f C  (%.2f W)\n",
                  std::string(fp.block(order[i]).name).c_str(),
                  block_t[order[i]], watts[order[i]]);
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
