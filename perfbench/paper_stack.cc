// The paper_stack workload: the paper's full-stack figure trials (real RPC
// over trace-modulated links, wardens and applications) run through the
// harness's ScenarioRegistry at one job, aggregated into a bench artifact.
//
// The plan runs trial by trial in plan order, as the harness's RunCampaign
// does at one job, so each trial can be timed.  Traced repetitions also
// give each trial a span and a TraceRecorder whose per-category counts are
// the stack's layer event counts; the aggregated artifact must come out
// byte-identical either way.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/harness/bench_artifact.h"
#include "src/harness/builtin_scenarios.h"
#include "src/harness/campaign.h"
#include "src/harness/campaign_runner.h"
#include "src/harness/scenario_registry.h"
#include "src/trace/trace_event.h"
#include "src/trace/trace_recorder.h"

namespace perfbench {
namespace {

using odyssey::TraceCategory;

// Trials per variant.  Figure 14 (3 variants) costs 20-56 ms a trial, the
// others at most ~2 ms, so Figure 14 carries most of the time, as in the
// tier1 campaign.
constexpr int kFig08Trials = 16;
constexpr int kAppsTrials = 4;
constexpr int kFig14Trials = 8;

// Large enough that no single trial of these figures overflows.
constexpr size_t kTraceCapacity = size_t{1} << 20;

odyssey::CampaignSpec PaperStackSpec(uint64_t seed) {
  odyssey::CampaignSpec spec;
  spec.name = "perfbench_paper_stack";
  spec.description = "Fig 8, Fig 10-12 and Fig 14 trials at one job";
  spec.seed = seed;
  spec.sweeps = {
      {"fig08_supply_agility", {}, kFig08Trials},
      {"fig10_video", {}, kAppsTrials},
      {"fig11_web", {}, kAppsTrials},
      {"fig12_speech", {}, kAppsTrials},
      {"fig14_concurrent", {}, kFig14Trials},
  };
  return spec;
}

double PercentileMs(const std::vector<double>& seconds, double q) {
  return Percentile(seconds, q) * 1000.0;
}

// A trial fails when it reports an oracle violation or a non-finite value.
bool TrialFailed(const odyssey::TrialMetrics& metrics) {
  for (const odyssey::MetricValue& metric : metrics) {
    if (!std::isfinite(metric.value) ||
        (metric.name == "oracle_violations" && metric.value != 0.0)) {
      return true;
    }
  }
  return false;
}

}  // namespace

RepResult RunPaperStack(uint64_t seed, SpanTracer* tracer, bool setup_only) {
  RepResult result;
  const bool traced = tracer != nullptr;
  const auto setup_start = std::chrono::steady_clock::now();
  odyssey::ScenarioRegistry registry;
  odyssey::RegisterBuiltinScenarios(&registry);
  const odyssey::CampaignSpec spec = PaperStackSpec(seed);
  std::vector<odyssey::PlannedTrial> plan;
  const odyssey::Status expanded = odyssey::ExpandCampaign(spec, registry, &plan);
  result.setup_s = SecondsSince(setup_start);
  if (setup_only) {
    return result;
  }
  if (!expanded.ok()) {
    result.attempted = 1;
    result.failed = 1;
    return result;
  }

  const auto run_start = std::chrono::steady_clock::now();
  odyssey::CampaignResult campaign;
  std::vector<double> trial_s;
  std::vector<double> fig08_s;
  std::vector<double> fig14_s;
  std::vector<double> apps_s;
  uint64_t category_events[odyssey::kTraceCategoryCount] = {};
  uint64_t trace_dropped = 0;
  std::unique_ptr<odyssey::TraceRecorder> recorder;
  if (traced) {
    recorder = std::make_unique<odyssey::TraceRecorder>(kTraceCapacity);
  }
  campaign.spec = spec;
  for (const odyssey::PlannedTrial& trial : plan) {
    const odyssey::ScenarioVariant* variant =
        registry.Find(trial.scenario)->FindVariant(trial.variant);
    if (recorder != nullptr) {
      recorder->Clear();
    }
    const auto trial_start = std::chrono::steady_clock::now();
    odyssey::TrialMetrics metrics;
    {
      Span span(tracer, SpanKind::kTrial, trial.trial_index);
      metrics = variant->run(trial.seed, recorder.get());
    }
    const double seconds = SecondsSince(trial_start);
    if (recorder != nullptr) {
      for (int c = 0; c < odyssey::kTraceCategoryCount; ++c) {
        category_events[c] += recorder->category_counts()[c];
      }
      trace_dropped += recorder->dropped_count();
    }
    trial_s.push_back(seconds);
    if (trial.scenario == "fig08_supply_agility") {
      fig08_s.push_back(seconds);
    } else if (trial.scenario == "fig14_concurrent") {
      fig14_s.push_back(seconds);
    } else {
      apps_s.push_back(seconds);
    }
    campaign.trials.push_back({trial, std::move(metrics)});
  }
  const auto aggregate_start = std::chrono::steady_clock::now();
  odyssey::BenchArtifact artifact;
  const bool aggregated = odyssey::AggregateCampaign(campaign, &artifact).ok();
  const std::string json = aggregated ? odyssey::ArtifactToJson(artifact) : std::string();
  const double aggregate_s = SecondsSince(aggregate_start);
  result.run_s = SecondsSince(run_start);
  result.unit_s = trial_s;
  result.unit_s.push_back(aggregate_s);

  Fingerprint fingerprint;
  fingerprint.AddBytes(json);
  result.fingerprint = fingerprint.value();
  result.attempted = std::max<uint64_t>(plan.size(), 1);
  if (!aggregated) {
    result.failed = result.attempted;
  } else {
    for (const odyssey::TrialOutcome& trial : campaign.trials) {
      result.failed += TrialFailed(trial.metrics) ? 1 : 0;
    }
  }

  if (traced) {
    const auto events = [&category_events](TraceCategory category) {
      return static_cast<double>(category_events[static_cast<int>(category)]);
    };
    result.layer = {
        {"harness.trials", static_cast<double>(trial_s.size())},
        {"harness.trial_ms_p50", PercentileMs(trial_s, 0.50)},
        {"harness.trial_ms_p99", PercentileMs(trial_s, 0.99)},
        {"paper.fig14_trials", static_cast<double>(fig14_s.size())},
        {"paper.fig14_ms_p50", PercentileMs(fig14_s, 0.50)},
        {"paper.fig08_trials", static_cast<double>(fig08_s.size())},
        {"paper.fig08_ms_p50", PercentileMs(fig08_s, 0.50)},
        {"paper.apps_trials", static_cast<double>(apps_s.size())},
        {"paper.apps_ms_p50", PercentileMs(apps_s, 0.50)},
        {"harness.aggregate_s", aggregate_s},
        {"trace.rpc_events", events(TraceCategory::kRpc)},
        {"trace.estimator_events", events(TraceCategory::kEstimator)},
        {"trace.net_events", events(TraceCategory::kNet)},
        {"trace.viceroy_events", events(TraceCategory::kViceroy)},
        {"trace.warden_events", events(TraceCategory::kWarden)},
        {"trace.app_events", events(TraceCategory::kApp)},
        {"trace.dropped_events", static_cast<double>(trace_dropped)},
    };
  }
  return result;
}

}  // namespace perfbench
