// Quickstart: run one hot SPEC2000-like benchmark under the hybrid DTM
// policy and watch temperature, voltage and fetch gating evolve.
//
// Usage: quickstart [benchmark] [key=value ...]
//   e.g. quickstart art run_instructions=2000000 dvs_stall=false
// Each key is the dotted path of a SimConfig field, as hydra_run takes
// it (core.rob_entries=128, thresholds.trigger=80, ...).
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "util/config.h"
#include "util/fields.h"

using namespace hydra;

int main(int argc, char** argv) {
  std::string bench = "art";
  std::vector<std::string> overrides;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.find('=') == std::string::npos) {
      bench = arg;
    } else {
      overrides.push_back(arg);
    }
  }

  sim::SimConfig cfg = sim::default_sim_config();
  try {
    const util::Config overrides_cfg = util::Config::from_args(overrides);
    for (const std::string& key : overrides_cfg.keys()) {
      if (!util::set_field(cfg, key, overrides_cfg.get_string(key, ""))) {
        throw std::invalid_argument("unknown SimConfig field '" + key + "'");
      }
    }

    const workload::WorkloadProfile profile =
        workload::spec2000_profile(bench);

    std::printf("== hydra-dtm quickstart: %s under Hyb (binary DVS %s) ==\n",
                bench.c_str(), cfg.dvs_stall ? "stall" : "ideal");

    sim::System system(profile, cfg,
                       sim::make_policy(sim::PolicyKind::kHybrid, {}, cfg));

    // Print a temperature/actuation trace every ~50 thermal intervals.
    int counter = 0;
    system.set_trace_callback([&counter](const sim::StepTrace& st) {
      if (counter++ % 50 != 0) return;
      std::printf(
          "t=%8.1f us  Tmax=%6.2f C  V=%.3f V  f=%.2f GHz  gate=%4.0f%%  %s\n",
          st.time_seconds * 1e6, st.max_true_celsius, st.voltage.value(),
          st.frequency.value() / 1e9, st.gate_fraction * 100.0,
          st.clock_gated ? "[clock gated]" : "");
    });

    const sim::RunResult r = system.run();

    std::printf("\n-- run summary --\n");
    std::printf("instructions        : %llu\n",
                static_cast<unsigned long long>(r.instructions));
    std::printf("IPC                 : %.2f\n", r.ipc);
    std::printf("max true temperature: %.2f C (emergency %.1f C)\n",
                r.max_true_celsius, cfg.thresholds.emergency.value());
    std::printf("thermal violations  : %s (%.2f%% of time)\n",
                r.thermally_safe() ? "none" : "VIOLATED",
                r.violation_fraction * 100.0);
    std::printf("time above trigger  : %.1f%%\n",
                r.above_trigger_fraction * 100.0);
    std::printf("mean fetch gating   : %.1f%%\n",
                r.mean_gate_fraction * 100.0);
    std::printf("time at low voltage : %.1f%%\n", r.dvs_low_fraction * 100.0);
    std::printf("DVS transitions     : %zu\n", r.dvs_transitions);
    std::printf("mean power          : %.1f W\n", r.mean_power_watts);
    std::printf("hottest block       : %s (mean %.2f C)\n",
                r.hottest_block.c_str(), r.hottest_mean_celsius);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
