// perfbench_driver: runs one benchmark workload for a time budget and
// prints its metrics.
//
//   perfbench_driver --workload <hotcore_storm|hotcore_steady|paper_stack>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--expect <fingerprint hex>] [--spans-out <path>]
//
// Untraced (--trace 0): repetitions while the budget lasts (always at
// least one), each preceded by set-up-only repetitions; prints setup_s (the
// median set-up sample), run_s (see SumOfUnitMinimums) and the process's
// peak RSS.  Traced (--trace 1): pairs of one untraced and one traced
// repetition while the budget lasts; prints the per-layer metrics (medians
// over the traced repetitions) and the tracing overhead.  Every
// repetition's output fingerprint must match every other's, and --expect
// when given.  The last stdout line is one JSON object; the exit code is
// nonzero when any check failed.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/span_tracer.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

struct LayerMetricSpec {
  const char* name;
  const char* unit;
};

// The per-layer metrics every traced run prints, in output order (the
// per_layer list of BENCHMARK.json).  A workload reports the subset it
// reaches; the rest print as 0.
const std::vector<LayerMetricSpec>& LayerMetricSpecs() {
  static const std::vector<LayerMetricSpec> specs = {
      {"sim.events", "count"},
      {"sim.self_s", "s"},
      {"estimator.scan_ops", "count"},
      {"estimator.observations", "count"},
      {"estimator.scan_ops_per_obs", "ratio"},
      {"strategies.availability_calls", "count"},
      {"strategies.availability_s", "s"},
      {"strategies.availability_per_upcall", "ratio"},
      {"strategies.hint_calls", "count"},
      {"strategies.hint_s", "s"},
      {"viceroy.observe_calls", "count"},
      {"viceroy.observe_s", "s"},
      {"viceroy.observe_us_p50", "us"},
      {"viceroy.observe_us_p99", "us"},
      {"viceroy.reevaluate_self_s", "s"},
      {"viceroy.request_calls", "count"},
      {"viceroy.request_ok", "count"},
      {"viceroy.request_s", "s"},
      {"viceroy.request_us_p50", "us"},
      {"viceroy.request_us_p99", "us"},
      {"viceroy.request_ok_ratio", "ratio"},
      {"viceroy.cancel_calls", "count"},
      {"viceroy.cancel_s", "s"},
      {"request_table.size_max", "count"},
      {"upcall.delivered", "count"},
      {"upcall.handler_s", "s"},
      {"upcall.latency_mean_ms", "ms"},
      {"core.run_s", "s"},
      {"core.us_per_upcall_cycle", "us"},
      {"core.clients", "count"},
      {"core.peak_rss_bytes", "bytes"},
      {"core.rss_bytes_per_client", "bytes"},
      {"check.oracle_calls", "count"},
      {"check.oracle_s", "s"},
      {"check.violations", "count"},
      {"hotcore.warmup_s", "s"},
      {"harness.trials", "count"},
      {"harness.trial_ms_p50", "ms"},
      {"harness.trial_ms_p99", "ms"},
      {"paper.fig14_trials", "count"},
      {"paper.fig14_ms_p50", "ms"},
      {"paper.fig08_trials", "count"},
      {"paper.fig08_ms_p50", "ms"},
      {"paper.apps_trials", "count"},
      {"paper.apps_ms_p50", "ms"},
      {"harness.aggregate_s", "s"},
      {"trace.rpc_events", "count"},
      {"trace.estimator_events", "count"},
      {"trace.net_events", "count"},
      {"trace.viceroy_events", "count"},
      {"trace.warden_events", "count"},
      {"trace.app_events", "count"},
      {"trace.dropped_events", "count"},
      {"trace.pairs", "count"},
      {"trace.run_s_untraced", "s"},
      {"trace.run_s_traced", "s"},
      {"trace.overhead_pct", "%"},
  };
  return specs;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool has_expect = false;
  uint64_t expect = 0;
  std::string spans_out;
};

using RepFn = RepResult (*)(uint64_t seed, SpanTracer* tracer, bool setup_only);

RepResult StormRep(uint64_t seed, SpanTracer* tracer, bool setup_only) {
  return RunHotcore(HotcoreShape::kStorm, seed, tracer, setup_only);
}
RepResult SteadyRep(uint64_t seed, SpanTracer* tracer, bool setup_only) {
  return RunHotcore(HotcoreShape::kSteady, seed, tracer, setup_only);
}

struct Workload {
  const char* name;
  RepFn rep;
  // Set-up-only repetitions made before each full one, so set-up is
  // sampled many times, spread over the whole run.
  size_t setup_only_reps;
};

constexpr Workload kWorkloads[] = {
    {"hotcore_storm", StormRep, 1},
    {"hotcore_steady", SteadyRep, 1},
    {"paper_stack", RunPaperStack, 25},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : kWorkloads) {
    if (name == workload.name) {
      return &workload;
    }
  }
  return nullptr;
}

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      options->trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--expect") {
      options->has_expect = true;
      options->expect = std::strtoull(value, &end, 16);
    } else if (flag == "--spans-out") {
      options->spans_out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return argc % 2 == 1 && FindWorkload(options->workload) != nullptr && options->seconds > 0.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

// The process's peak resident set (VmHWM).  Not getrusage's ru_maxrss:
// Linux carries that across execve, so it would report the launching
// process's peak when that was larger.
double PeakRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

// run_s: the sum over the timed phase's units of work of each unit's
// fastest time across the repetitions.  The units are deterministic, so a
// unit's time varies only with the host; other tenants slow whole seconds
// of a run at a time, and the per-unit minimum keeps the figure steady
// where a per-repetition median follows their load.  Negative when the
// repetitions disagree on the units (a determinism failure).
double SumOfUnitMinimums(const std::vector<std::vector<double>>& reps) {
  std::vector<double> best = reps.front();
  for (const std::vector<double>& rep : reps) {
    if (rep.size() != best.size()) {
      return -1.0;
    }
    for (size_t i = 0; i < rep.size(); ++i) {
      best[i] = std::min(best[i], rep[i]);
    }
  }
  double total = 0.0;
  for (const double seconds : best) {
    total += seconds;
  }
  return total;
}

// Checks every repetition's fingerprint and work count against the
// first's (the fingerprint also against the expected value when given);
// tallies operations.
struct Verdict {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool fingerprint_ok = true;
  uint64_t fingerprint = 0;
  uint64_t work = 0;
  bool has_fingerprint = false;

  void Add(const RepResult& rep) {
    attempted += rep.attempted;
    failed += rep.failed;
    if (!has_fingerprint) {
      fingerprint = rep.fingerprint;
      work = rep.work;
      has_fingerprint = true;
    } else if (rep.fingerprint != fingerprint || rep.work != work) {
      fingerprint_ok = false;
    }
  }
};

struct Printed {
  const char* name;
  double value;
  const char* unit;
};

void PrintMetric(const char* name, double value, const char* unit) {
  std::printf("%-36s %.6g %s\n", name, value, unit);
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload <hotcore_storm|hotcore_steady|paper_stack> "
                 "--seed <n> --seconds <s> --trace <0|1> [--expect <hex>] [--spans-out <path>]\n");
    return 2;
  }
  const Workload& workload = *FindWorkload(options.workload);
  const RepFn rep = workload.rep;
  const auto start = std::chrono::steady_clock::now();
  Verdict verdict;
  std::vector<Printed> metrics;

  if (!options.trace) {
    std::vector<double> setup_s;
    std::vector<double> run_s;
    std::vector<std::vector<double>> unit_s;
    while (true) {
      const auto rep_start = std::chrono::steady_clock::now();
      for (size_t i = 0; i < workload.setup_only_reps; ++i) {
        setup_s.push_back(rep(options.seed, nullptr, /*setup_only=*/true).setup_s);
      }
      const RepResult result = rep(options.seed, nullptr, /*setup_only=*/false);
      verdict.Add(result);
      setup_s.push_back(result.setup_s);
      run_s.push_back(result.run_s);
      unit_s.push_back(result.unit_s);
      if (SecondsSince(start) + SecondsSince(rep_start) > options.seconds) {
        break;
      }
    }
    const double unit_minimums = SumOfUnitMinimums(unit_s);
    if (unit_minimums < 0.0) {
      verdict.fingerprint_ok = false;
    }
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"run_s", unit_minimums, "s"},
        {"peak_rss_mb", PeakRssBytes() / (1024.0 * 1024.0), "MB"},
    };
    std::printf("# %s seed=%" PRIu64 ": %zu set-up samples (median %.6g s, fastest %.6g s); "
                "%zu timed repetitions of %zu units (median %.4f s); each:",
                options.workload.c_str(), options.seed, setup_s.size(), Median(setup_s),
                *std::min_element(setup_s.begin(), setup_s.end()), run_s.size(),
                unit_s.front().size(), Median(run_s));
    for (const double seconds : run_s) {
      std::printf(" %.4f", seconds);
    }
    std::printf("\n");
  } else {
    std::vector<std::vector<double>> untraced_s;
    std::vector<std::vector<double>> traced_s;
    std::map<std::string, std::vector<double>> layer;
    double peak_rss = 0.0;
    std::unique_ptr<SpanTracer> tracer;
    while (true) {
      const auto pair_start = std::chrono::steady_clock::now();
      const RepResult plain = rep(options.seed, nullptr, /*setup_only=*/false);
      if (peak_rss == 0.0) {
        peak_rss = PeakRssBytes();
      }
      tracer = std::make_unique<SpanTracer>();
      const RepResult traced = rep(options.seed, tracer.get(), /*setup_only=*/false);
      verdict.Add(plain);
      verdict.Add(traced);
      untraced_s.push_back(plain.unit_s);
      traced_s.push_back(traced.unit_s);
      for (const Metric& metric : traced.layer) {
        layer[metric.name].push_back(metric.value);
      }
      if (SecondsSince(start) + SecondsSince(pair_start) > options.seconds) {
        break;
      }
    }
    std::map<std::string, double> values;
    for (const auto& [name, samples] : layer) {
      values[name] = Median(samples);
    }
    const double run_untraced = SumOfUnitMinimums(untraced_s);
    const double run_traced = SumOfUnitMinimums(traced_s);
    if (run_untraced < 0.0 || run_traced < 0.0) {
      verdict.fingerprint_ok = false;
    }
    values["trace.pairs"] = static_cast<double>(traced_s.size());
    values["trace.run_s_untraced"] = run_untraced;
    values["trace.run_s_traced"] = run_traced;
    values["trace.overhead_pct"] =
        run_untraced > 0.0 ? (run_traced / run_untraced - 1.0) * 100.0 : 0.0;
    if (values["core.clients"] > 0.0) {
      values["core.run_s"] = run_untraced;
      if (values["upcall.delivered"] > 0.0) {
        values["core.us_per_upcall_cycle"] = run_untraced * 1e6 / values["upcall.delivered"];
      }
      values["core.peak_rss_bytes"] = peak_rss;
      values["core.rss_bytes_per_client"] = peak_rss / values["core.clients"];
    }
    for (const auto& [name, unused] : values) {
      const bool known =
          std::any_of(LayerMetricSpecs().begin(), LayerMetricSpecs().end(),
                      [&name](const LayerMetricSpec& spec) { return name == spec.name; });
      if (!known) {
        std::fprintf(stderr, "perfbench: unlisted per-layer metric %s\n", name.c_str());
        return 3;
      }
    }
    for (const LayerMetricSpec& spec : LayerMetricSpecs()) {
      metrics.push_back({spec.name, values.count(spec.name) ? values[spec.name] : 0.0, spec.unit});
    }
    if (!options.spans_out.empty() && !tracer->WriteTsv(options.spans_out)) {
      std::fprintf(stderr, "perfbench: could not write %s\n", options.spans_out.c_str());
    }
    std::printf("# %s seed=%" PRIu64 ": %zu untraced/traced pairs, %zu spans kept, %" PRIu64
                " not kept\n",
                options.workload.c_str(), options.seed, traced_s.size(), tracer->records().size(),
                tracer->records_dropped());
  }

  const bool expect_ok = !options.has_expect || verdict.fingerprint == options.expect;
  if (!verdict.fingerprint_ok || !expect_ok) {
    verdict.failed = verdict.attempted;  // a fingerprint mismatch fails the whole run
  }
  const bool correct = verdict.failed == 0;
  const double error_rate = verdict.attempted > 0
                                ? static_cast<double>(verdict.failed) /
                                      static_cast<double>(verdict.attempted)
                                : 1.0;
  std::printf("# fingerprint %016" PRIx64 ", work %" PRIu64 " (%s%s)\n", verdict.fingerprint,
              verdict.work, verdict.fingerprint_ok ? "repeatable" : "NOT REPEATABLE",
              options.has_expect ? (expect_ok ? ", matches expected" : ", DIFFERS FROM EXPECTED")
                                 : "");
  for (const Printed& metric : metrics) {
    PrintMetric(metric.name, metric.value, metric.unit);
  }
  PrintMetric("error_rate", error_rate, "ratio");

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(verdict.attempted);
  json += ", \"failed\": " + std::to_string(verdict.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Printed& metric : metrics) {
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    json += first ? "" : ", ";
    json += "\"" + std::string(metric.name) + "\": {\"value\": " + number +
            ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
