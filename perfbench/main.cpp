/// \file main.cpp
/// nestwx benchmark harness. Runs one workload and prints, as its last
/// line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
///
///   nestwx-perfbench --workload=serve_spill --seed=1 --seconds=30
///       --trace=0 --work-dir=.bench_work/x --trace-out=trace.json
///
/// --trace=0 reports the end-to-end metrics, --trace=1 the per-layer
/// metrics of a separate traced run. perfbench/run.py builds this binary
/// and passes the arguments; see perfbench/README.md.

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "common.hpp"

namespace perfbench {

void run_serve(const Args& args, Result& result);
void run_swm(const Args& args, Result& result);

namespace {

/// Seed reserved for confirming a claimed gain; never used while tuning.
constexpr std::uint64_t kHeldOutSeed = 7919;

enum Applies : unsigned { kServe = 1, kSwm = 2, kAll = 3, kOptional = 0 };

struct MetricDef {
  const char* name;
  const char* unit;
  unsigned applies;  ///< workloads that must measure it
};

/// The end-to-end metrics (--trace=0). Every workload reports each one.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", kAll},
    {"units_per_s", "1/s", kAll},
    {"ms_per_unit", "ms", kAll},
    {"peak_rss_mb", "MB", kAll},
};

/// The per-layer metrics (--trace=1). Every traced run prints all of
/// them; a layer a workload never calls reads 0.
constexpr MetricDef kPerLayer[] = {
    {"serve.spool.submit_us_p50", "us", kServe},
    {"serve.spool.claim_us_p50", "us", kServe},
    {"serve.spool.retire_us_p50", "us", kServe},
    {"serve.request.parse_us_p50", "us", kServe},
    {"serve.outcome_json_us_p50", "us", kServe},
    {"serve.report_json_ms", "ms", kServe},
    {"serve.report_bytes", "bytes", kServe},
    {"serve.execute_s", "s", kServe},
    {"serve.executed_campaigns", "count", kServe},
    {"serve.served_frac", "ratio", kServe},
    {"serve.dedup_ratio", "ratio", kServe},
    {"serve.virtual_makespan_s", "virtual-s", kServe},
    {"serve.virtual_wait_p99_s", "virtual-s", kServe},
    {"campaign.run_ms_p50", "ms", kServe},
    {"campaign.run_ms_p95", "ms", kServe},
    {"campaign.share_us_p50", "us", kServe},
    {"campaign.members_executed", "count", kServe},
    {"core.plan_execution_us_p50", "us", kServe},
    {"core.plan_execution_us_p95", "us", kServe},
    {"core.plan_calls", "count", kServe},
    {"core.predict_calls", "count", kServe},
    {"core.model_fit_ms", "ms", kServe},
    {"wrfsim.profile_basis_ms", "ms", kServe},
    {"wrfsim.simulate_run_us_p50", "us", kServe},
    {"wrfsim.simulate_run_us_p95", "us", kServe},
    {"wrfsim.simulate_run_calls", "count", kServe},
    {"netsim.phase_run_us_p50", "us", kServe},
    {"netsim.messages_per_phase", "count", kServe},
    {"netsim.hops_per_phase", "count", kServe},
    {"netsim.max_link_flows", "count", kServe},
    {"netsim.ns_per_hop", "ns", kServe},
    {"cache.lookups", "count", kServe},
    {"cache.hit_ratio", "ratio", kServe},
    {"cache.get_us_p50", "us", kServe},
    {"cache.evictions", "count", kServe},
    {"cache.trim_ms", "ms", kServe},
    {"cache.resident_plans", "count", kServe},
    {"iosim.spills", "count", kServe},
    {"iosim.reloads", "count", kServe},
    {"iosim.save_plan_us_p50", "us", kServe},
    {"iosim.load_plan_us_p50", "us", kServe},
    {"iosim.plan_file_bytes", "bytes", kServe},
    {"iosim.reload_over_replan", "ratio", kServe},
    {"nest.advance_ms_p50", "ms", kSwm},
    {"swm.parent_step_ms_p50", "ms", kSwm},
    {"swm.child_step_ms_p50", "ms", kSwm},
    {"nest.ghost_stage_us_p50", "us", kSwm},
    {"nest.feedback_us_p50", "us", kSwm},
    {"nest.sibling_share", "ratio", kSwm},
    {"swm.tendency_mcells_per_s_serial", "Mcell/s", kSwm},
    {"swm.tendency_mcells_per_s_pooled", "Mcell/s", kSwm},
    {"swm.flops_per_cell", "flop", kSwm},
    {"swm.bytes_per_cell", "bytes", kSwm},
    {"util.parallel_for_us", "us", kSwm},
    {"nest.construct_ms", "ms", kSwm},
    {"nest.working_set_mb", "MB", kSwm},
    {"clock.cpu_units_per_s", "1/s", kAll},
    {"clock.cpu_ms_per_unit", "ms", kAll},
    {"clock.wall_units_per_s", "1/s", kAll},
    {"clock.wall_ms_per_unit", "ms", kAll},
    {"trace.overhead_frac", "ratio", kAll},
    {"trace.self_s.harness", "s", kAll},
    {"trace.self_s.serve", "s", kServe},
    {"trace.self_s.campaign", "s", kServe},
    {"trace.self_s.core", "s", kServe},
    {"trace.self_s.cache", "s", kServe},
    {"trace.self_s.wrfsim", "s", kServe},
    {"trace.self_s.procgrid", "s", kServe},
    {"trace.self_s.netsim", "s", kServe},
    {"trace.self_s.iosim", "s", kOptional},
    {"trace.self_s.nest", "s", kSwm},
    {"trace.self_s.swm", "s", kSwm},
    {"trace.self_s.util", "s", kSwm},
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") a.workload = value;
    else if (key == "seed") a.seed = std::stoull(value);
    else if (key == "seconds") a.seconds = std::stod(value);
    else if (key == "trace") a.trace = value == "1";
    else if (key == "work-dir") a.work_dir = value;
    else if (key == "trace-out") a.trace_out = value;
    else return false;
  }
  return (a.workload == "serve_steady" || a.workload == "serve_spill" ||
          a.workload == "nested_swm") &&
         !a.work_dir.empty() && !a.trace_out.empty() && a.seconds > 0.0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: nestwx-perfbench --workload=serve_steady|serve_spill|"
                 "nested_swm --seed=N --seconds=S --trace=0|1 --work-dir=DIR "
                 "--trace-out=PATH\n";
    return 2;
  }
  std::cout << "seed " << args.seed << " (held-out seed for claims: "
            << kHeldOutSeed << ")\n";
  Result result;
  try {
    std::filesystem::create_directories(args.work_dir);
    if (args.workload == "nested_swm")
      run_swm(args, result);
    else
      run_serve(args, result);
  } catch (const std::exception& e) {
    std::cerr << "nestwx-perfbench: " << e.what() << "\n";
    return 1;
  }

  const unsigned mine = args.workload == "nested_swm" ? kSwm : kServe;
  std::string json = "{";
  bool first = true;
  const auto emit = [&](const MetricDef& def) {
    const auto it = result.metrics.find(def.name);
    double value = 0.0;
    if (it != result.metrics.end()) {
      value = it->second;
    } else if (def.applies & mine) {
      result.fail(std::string("metric ") + def.name + " was not measured");
    }
    if (!std::isfinite(value)) {
      result.fail(std::string("metric ") + def.name + " is not finite");
      value = 0.0;
    }
    char buf[96];
    std::snprintf(buf, sizeof(buf), "{\"value\": %.17g, \"unit\": \"%s\"}",
                  value, def.unit);
    json += (first ? "\"" : ", \"") + std::string(def.name) + "\": " + buf;
    first = false;
  };
  if (args.trace) {
    std::cout << "per-layer metrics:\n";
    for (const MetricDef& def : kPerLayer) {
      emit(def);
      const auto it = result.metrics.find(def.name);
      report_line(def.name, it == result.metrics.end() ? 0.0 : it->second,
                  def.unit, 1, (def.applies & mine) ? "" : "layer not run");
    }
  } else {
    for (const MetricDef& def : kEndToEnd) emit(def);
  }
  json += "}";

  const double failed_frac =
      result.attempted > 0
          ? static_cast<double>(result.failed) / static_cast<double>(result.attempted)
          : 1.0;
  if (result.attempted < 1) result.fail("no work attempted");
  report_line("failed_frac", failed_frac, "ratio",
              static_cast<std::size_t>(result.attempted),
              std::to_string(result.failed) + " failed");
  for (const auto& f : result.failures) std::cout << "CHECK FAILED: " << f << "\n";
  std::cout << "{\"correct\": " << (result.failures.empty() ? "true" : "false")
            << ", \"attempted\": " << std::max(result.attempted, 1LL)
            << ", \"failed\": " << result.failed << ", \"metrics\": " << json
            << "}" << std::endl;
  return 0;
}
