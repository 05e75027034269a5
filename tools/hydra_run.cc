// hydra_run — scriptable experiment driver.
//
// Runs one DTM experiment (benchmark x policy) and emits the result as
// a text table or JSON, making the simulator usable from shell
// pipelines and dashboards without writing C++.
//
// Usage:
//   hydra_run benchmark=<name|all> policy=<name> [key=value ...]
//
// Run-control keys:
//   benchmark     mesa|perlbmk|gzip|bzip2|eon|crafty|vortex|gcc|art|all
//   policy        none|dvs|fg|fg-fixed|clockgate|pi-hyb|hyb|pro-hyb|
//                 local-toggle|fallback
//   format        text|json                      (default text)
//   fault_campaign  path to a sensor-fault schedule (see src/fault);
//                   times are relative to the measured window
//   threads       worker threads stepping a many-core die's tiles
//                 (multicore.threads, which has no dotted key); 0
//                 uses the global pool width. Defaults to
//                 $HYDRA_THREADS when set. Results are bit-identical at
//                 any value.
//   cache_dir     crash-safe persistent run-cache directory; defaults to
//                 $HYDRA_CACHE_DIR, empty disables persistence. Its
//                 size cap is $HYDRA_CACHE_MAX_BYTES (default 256 MiB).
//   timeout_seconds  per-run wall-clock deadline (0 = none); an expired
//                 run exits nonzero with a typed timeout diagnostic
//
// Every other key is the dotted path of a SimConfig or PolicyParams
// field, as their visit_fields lists name it (util/fields.h):
//   run_instructions=1000000  thermal_interval_cycles=1250
//   time_scale=150  dvs_stall=false  core.issue_width=8
//   thresholds.trigger=78  sensor.seed=7  multicore.cores=8
//   multicore.migration=true  multicore.arbiter.die_budget=40
//   hybrid.crossover_gate_fraction=0.25  guarded=true
// A value must parse in full as the field's type: an unsigned field
// takes no sign, a real must be finite. Enum fields and the fault
// campaign are not settable this way.
//
// Unknown keys are rejected with a one-line file:line diagnostic and a
// closest-spelling suggestion; the process exits nonzero.
//
// Observability outputs (any of these enables tracing + metrics for the
// whole run; like every key they may be spelled with dashes or
// underscores, and a leading `--` is accepted, so `--trace=out.json`
// works):
//   trace         Chrome trace-event JSON (chrome://tracing, Perfetto)
//   trace_csv     the same events as flat CSV
//   metrics       metrics registry scrape as CSV (kind,name,field,value)
//   summary_json  machine-readable run summary: results + engine cache
//                 stats + merged metrics (uploaded by CI's benchmark job)
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <type_traits>
#include <vector>

#include "fault/fault_campaign.h"

#include "obs/obs.h"
#include "sim/experiment.h"
#include "sim/persistent_cache.h"
#include "util/config.h"
#include "util/fields.h"
#include "util/json.h"
#include "util/table.h"

using namespace hydra;

namespace {

const std::vector<std::string_view> kRunControlKeys = {
    "benchmark", "policy",       "format",    "fault_campaign",
    "threads",   "trace",        "trace_csv", "metrics",
    "summary_json", "cache_dir", "timeout_seconds",
};

sim::PolicyKind parse_policy(const std::string& name) {
  if (name == "none") return sim::PolicyKind::kNone;
  if (name == "dvs") return sim::PolicyKind::kDvs;
  if (name == "fg") return sim::PolicyKind::kFetchGating;
  if (name == "fg-fixed") return sim::PolicyKind::kFixedFetchGating;
  if (name == "clockgate") return sim::PolicyKind::kClockGating;
  if (name == "pi-hyb") return sim::PolicyKind::kPiHybrid;
  if (name == "hyb") return sim::PolicyKind::kHybrid;
  if (name == "pro-hyb") return sim::PolicyKind::kProactiveHybrid;
  if (name == "local-toggle") return sim::PolicyKind::kLocalToggle;
  if (name == "fallback") return sim::PolicyKind::kFallback;
  throw std::invalid_argument("unknown policy '" + name + "'");
}

/// Every RunResult field of the DTM run, then the two comparisons
/// against its baseline.
void emit_json(util::JsonWriter& w, const sim::ExperimentResult& r) {
  w.begin_object();
  util::write_json_members(w, r.dtm);
  w.key("slowdown").value(r.slowdown);
  w.key("baseline_ipc").value(r.baseline.ipc);
  w.end_object();
}

std::string text_cell(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// One row per field (the JSON keys, in the same order, plus `safe`),
/// one column per result.
void print_table(std::ostream& os,
                 const std::vector<sim::ExperimentResult>& results) {
  std::vector<std::vector<std::string>> rows;
  for (const sim::ExperimentResult& r : results) {
    std::size_t i = 0;
    const auto cell = [&rows, &i](std::string_view name, std::string text) {
      if (i == rows.size()) rows.push_back({std::string(name)});
      rows[i++].push_back(std::move(text));
    };
    util::for_each_leaf(r.dtm, [&cell](std::string_view name,
                                       const auto& v) {
      if constexpr (std::is_floating_point_v<
                        std::remove_cvref_t<decltype(v)>>) {
        cell(name, text_cell(v));
      } else {
        cell(name, util::leaf_text(v));
      }
    });
    cell("slowdown", text_cell(r.slowdown));
    cell("baseline_ipc", text_cell(r.baseline.ipc));
    cell("safe", r.dtm.thermally_safe() ? "yes" : "NO");
  }
  util::AsciiTable table;
  std::vector<std::string> header = {"field"};
  for (const sim::ExperimentResult& r : results) {
    header.push_back(r.dtm.benchmark);
  }
  table.header(std::move(header));
  for (std::vector<std::string>& row : rows) table.row(std::move(row));
  table.print(os);
}

std::ofstream open_or_throw(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open '" + path + "' for write");
  return out;
}

/// Machine-readable run summary: per-point results plus engine-level
/// cache statistics, trace volume and the merged metrics scrape.
void emit_summary(std::ostream& os,
                  const std::vector<sim::ExperimentResult>& results,
                  const sim::RunCache::Stats& cache) {
  util::JsonWriter w(os);
  w.begin_object();
  w.key("results").begin_array();
  for (const auto& r : results) emit_json(w, r);
  w.end_array();
  w.key("run_cache").begin_object();
  w.key("hits").value(cache.hits);
  w.key("misses").value(cache.misses);
  w.key("failures").value(cache.failures);
  w.key("timeouts").value(cache.timeouts);
  w.key("computes").value(cache.computes);
  w.key("disk_hits").value(cache.disk_hits);
  w.key("disk_stores").value(cache.disk_stores);
  w.end_object();
  w.key("trace_events").value(obs::tracer().size());
  const obs::MetricsSnapshot snap = obs::metrics().scrape();
  w.key("counters").begin_object();
  for (const auto& [name, count] : snap.counters) {
    w.key(name).value(count);
  }
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, value] : snap.gauges) {
    w.key(name).value(value);
  }
  w.end_object();
  w.end_object();
  os << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Config cfg_args =
        util::Config::from_args(std::vector<std::string>(argv + 1,
                                                         argv + argc));
    const std::vector<std::string> cfg_paths =
        util::settable_paths<sim::SimConfig>();
    const std::vector<std::string> param_paths =
        util::settable_paths<sim::PolicyParams>();
    std::vector<std::string_view> allowed = kRunControlKeys;
    allowed.insert(allowed.end(), cfg_paths.begin(), cfg_paths.end());
    allowed.insert(allowed.end(), param_paths.begin(), param_paths.end());
    cfg_args.reject_unknown(allowed);

    const std::string bench = cfg_args.get_string("benchmark", "crafty");
    const std::string policy_name = cfg_args.get_string("policy", "hyb");
    const std::string format = cfg_args.get_string("format", "text");

    sim::SimConfig cfg = sim::default_sim_config();
    sim::PolicyParams params;
    // Every key passed reject_unknown: it is a field of one of the two
    // structs, or a run-control key, which matches neither.
    for (const std::string& key : cfg_args.keys()) {
      const std::string value = cfg_args.get_string(key, "");
      if (!util::set_field(cfg, key, value)) {
        util::set_field(params, key, value);
      }
    }
    if (cfg.thresholds.emergency.value() <= cfg.thresholds.trigger.value()) {
      throw std::runtime_error(
          "thresholds.emergency must be above thresholds.trigger");
    }
    const std::string campaign_path =
        cfg_args.get_string("fault_campaign", "");
    if (!campaign_path.empty()) {
      cfg.fault_campaign =
          fault::FaultCampaign::from_file(campaign_path,
                                          sim::sensor_names());
    }
    // Intra-run width: CLI key wins, else $HYDRA_THREADS, else the
    // library default (global pool). Never part of the result.
    cfg.multicore.threads = cfg_args.get<std::size_t>(
        "threads", util::env_u64("HYDRA_THREADS", cfg.multicore.threads));

    const std::string trace_path = cfg_args.get_string("trace", "");
    const std::string trace_csv_path = cfg_args.get_string("trace_csv", "");
    const std::string metrics_path = cfg_args.get_string("metrics", "");
    const std::string summary_path = cfg_args.get_string("summary_json", "");
    const bool observe = !trace_path.empty() || !trace_csv_path.empty() ||
                         !metrics_path.empty() || !summary_path.empty();
    // Enable before the runner spawns its pool so workers register their
    // named trace lanes on startup.
    if (observe) obs::Observability::instance().enable_all();

    const sim::PolicyKind kind = parse_policy(policy_name);
    sim::ExperimentRunner runner(cfg);

    runner.set_job_timeout(
        cfg_args.get("timeout_seconds", util::Seconds(0.0)));

    // Crash-safe persistence is opt-in: an explicit cache_dir key, or
    // the HYDRA_CACHE_DIR environment as the ambient default.
    const char* env_cache = std::getenv("HYDRA_CACHE_DIR");
    const std::string cache_dir = cfg_args.get_string(
        "cache_dir", env_cache != nullptr ? env_cache : "");
    if (!cache_dir.empty()) {
      sim::PersistentRunCache::Options store_opts;
      store_opts.dir = cache_dir;
      store_opts.max_bytes =
          util::env_u64("HYDRA_CACHE_MAX_BYTES", store_opts.max_bytes);
      if (store_opts.max_bytes == 0) {
        throw std::invalid_argument("HYDRA_CACHE_MAX_BYTES must be positive");
      }
      runner.set_store(
          std::make_shared<sim::PersistentRunCache>(std::move(store_opts)));
    }

    std::vector<sim::PointSpec> points;
    if (bench == "all") {
      for (const auto& profile : workload::spec2000_hot_profiles()) {
        points.push_back({profile, kind, params, cfg});
      }
    } else {
      points.push_back({workload::spec2000_profile(bench), kind, params, cfg});
    }
    const std::vector<sim::ExperimentResult> results =
        runner.run_points(points);

    if (format == "json") {
      util::JsonWriter w(std::cout);
      w.begin_array();
      for (const auto& r : results) emit_json(w, r);
      w.end_array();
    } else if (format == "text") {
      print_table(std::cout, results);
    } else {
      throw std::invalid_argument("unknown format '" + format + "'");
    }

    if (!trace_path.empty()) {
      auto out = open_or_throw(trace_path);
      obs::tracer().write_chrome_json(out);
    }
    if (!trace_csv_path.empty()) {
      auto out = open_or_throw(trace_csv_path);
      obs::tracer().write_csv(out);
    }
    if (!metrics_path.empty()) {
      auto out = open_or_throw(metrics_path);
      obs::metrics().write_csv(out);
    }
    if (!summary_path.empty()) {
      auto out = open_or_throw(summary_path);
      emit_summary(out, results, runner.cache_stats());
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "hydra_run: " << e.what() << '\n';
    return 1;
  }
}
