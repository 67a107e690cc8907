#include "src/check/scale_scenario.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/check/fuzz_scenario.h"
#include "src/check/oracles.h"
#include "src/core/contract.h"
#include "src/core/resource.h"
#include "src/core/viceroy.h"
#include "src/metrics/experiment.h"
#include "src/net/link.h"
#include "src/rpc/endpoint.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"
#include "src/strategies/centralized.h"
#include "src/strategies/strategy_registry.h"

namespace odyssey {
namespace {

// The stepped supply waveform, in KB/s.  Each level holds for a quarter of
// the horizon; every transition moves availability far outside the [0.7x,
// 1.3x] windows the applications hold, so each one triggers a full
// re-registration storm across all N apps.
constexpr double kWaveKbps[] = {60.0, 200.0, 30.0, 120.0};

constexpr Duration kCancelSweepPeriod = 500 * kMillisecond;
constexpr Duration kOraclePeriod = 100 * kMillisecond;
constexpr Duration kDrainGrace = 2 * kSecond;
// Apps holding a second (idle) connection, so the scale rig exercises more
// than one bucket of the strategy's connection-count histogram.
constexpr int kMultiConnectionApps = 8;

struct ScaleParams {
  int apps = 100;
  // Connections that receive synthetic throughput observations; the rest
  // stay idle, as in a real deployment where most clients are quiescent.
  int hot_connections = 32;
  Duration horizon = 10 * kSecond;
  Duration feed_period = 50 * kMillisecond;
  // Apps recycled (cancel + re-register) per sweep, exercising request-table
  // slot reuse under load.
  int cancel_sweep = 256;
  // OracleSet::set_max_audited_connections (0 = audit everything).
  size_t max_audited_connections = 0;
  SupplyModelKind kind = SupplyModelKind::kIncremental;
  ReevaluateMode mode = ReevaluateMode::kIndexed;
};

// The FuzzScenario handed to OracleSet: its segments mirror the rig's
// waveform so the byte-conservation bound is the true capacity integral
// (the rig never moves bytes through the link, so the bound is slack).
FuzzScenario SyntheticScenario(const ScaleParams& params, uint64_t seed) {
  FuzzScenario scenario;
  scenario.seed = seed;
  scenario.horizon = params.horizon;
  for (const double kbps : kWaveKbps) {
    FuzzSegment segment;
    segment.duration = params.horizon / 4;
    segment.bandwidth_bps = kbps * 1024.0 * static_cast<double>(params.hot_connections);
    segment.latency = 10 * kMillisecond;
    scenario.segments.push_back(segment);
  }
  return scenario;
}

class ScaleRig {
 public:
  ScaleRig(const ScaleParams& params, uint64_t seed, TraceRecorder* trace)
      : params_(params),
        scenario_(SyntheticScenario(params, seed)),
        sim_(seed),
        link_(&sim_, scenario_.segments.front().bandwidth_bps, 10 * kMillisecond),
        viceroy_(&sim_, MakeStrategy(&sim_, params), kUpcallLatency) {
    sim_.set_trace(trace);
    strategy_ = viceroy_.strategy().audit_surface();
    viceroy_.set_reevaluate_mode(params.mode);
    oracle_ = std::make_unique<OracleSet>(scenario_, &sim_, &viceroy_, strategy_, &link_);
    oracle_->set_max_audited_connections(params.max_audited_connections);
  }

  TrialMetrics Run() {
    const auto wall_start = std::chrono::steady_clock::now();
    Build();
    const OracleArming arming(&sim_, {{&viceroy_, oracle_.get()}});
    sim_.Post(params_.feed_period, [this] { Feed(); });
    sim_.Post(kOraclePeriod, [this] { SampleOracle(); });
    sim_.Post(kCancelSweepPeriod, [this] { CancelSweep(); });
    sim_.RunUntil(params_.horizon + kDrainGrace);
    oracle_->Finish();
    const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - wall_start;
    return Metrics(wall.count());
  }

 private:
  struct AppState {
    AppId id = 0;
    RequestId request = 0;  // current registration; 0 = none
  };

  static std::unique_ptr<BandwidthStrategy> MakeStrategy(Simulation* sim,
                                                         const ScaleParams& params) {
    StrategyContext context;
    context.sim = sim;
    context.supply_kind = params.kind;
    return StrategyRegistry::Builtin().Create("odyssey", std::move(context));
  }

  void Build() {
    Rng rng(sim_.rng().NextU64());
    apps_.reserve(params_.apps);
    endpoints_.reserve(params_.apps);
    for (int i = 0; i < params_.apps; ++i) {
      AppState app;
      app.id = viceroy_.RegisterApplication("scale" + std::to_string(i));
      endpoints_.push_back(std::make_unique<Endpoint>(&sim_, &link_, "server"));
      viceroy_.AttachConnection(app.id, endpoints_.back().get());
      apps_.push_back(app);
    }
    // A handful of two-connection apps: their idle availability is 2x the
    // per-connection fair share, populating a second level of the indexed
    // re-evaluation's idle probe.
    for (int i = 0; i < std::min(kMultiConnectionApps, params_.apps); ++i) {
      extra_endpoints_.push_back(std::make_unique<Endpoint>(&sim_, &link_, "server2"));
      viceroy_.AttachConnection(apps_[i].id, extra_endpoints_.back().get());
    }
    const int hot = std::min(params_.hot_connections, params_.apps);
    weights_.reserve(hot);
    for (int i = 0; i < hot; ++i) {
      weights_.push_back(rng.Uniform(0.5, 1.5));
    }
    for (AppState& app : apps_) {
      RegisterWindow(&app, viceroy_.CurrentLevel(app.id, ResourceId::kNetworkBandwidth));
    }
  }

  // Registers a [0.7x, 1.3x] window around |level| for |app|.  A level that
  // moved between upcall post and delivery can make the first attempt
  // out-of-bounds; the retry re-centers on the reported current level, which
  // by construction the new window contains.
  void RegisterWindow(AppState* app, double level) {
    for (int attempt = 0; attempt < 4; ++attempt) {
      ResourceDescriptor descriptor;
      descriptor.resource = ResourceId::kNetworkBandwidth;
      descriptor.lower = level * 0.7;
      descriptor.upper = std::max(level * 1.3, descriptor.lower + 1.0);
      descriptor.handler = [this, app](RequestId, ResourceId resource, double new_level) {
        if (resource != ResourceId::kNetworkBandwidth) {
          return;
        }
        app->request = 0;  // the delivered upcall consumed the registration
        RegisterWindow(app, new_level);
      };
      const RequestResult result = viceroy_.Request(app->id, descriptor);
      if (result.ok()) {
        app->request = result.id;
        ++windows_registered_;
        oracle_->OnWindowRegistered(app->id, result.id, descriptor.lower, descriptor.upper);
        return;
      }
      level = result.current_level;
    }
  }

  double WaveRateBps(Time now) const {
    const Duration step = params_.horizon / 4;
    const size_t index =
        std::min<size_t>(step == 0 ? 0 : static_cast<size_t>(now / step), std::size(kWaveKbps) - 1);
    return kWaveKbps[index] * 1024.0;
  }

  // Synthetic passive observations: each hot connection reports one window
  // per feed period at its share of the waveform rate, with a round trip
  // every tenth tick.  Feeding the logs directly (rather than moving real
  // traffic) keeps the trial's cost concentrated in the estimator and
  // re-evaluation paths this campaign measures.
  void Feed() {
    const Time now = sim_.now();
    if (now >= params_.horizon) {
      return;
    }
    const double rate = WaveRateBps(now);
    const double period_s = DurationToSeconds(params_.feed_period);
    const int hot = static_cast<int>(weights_.size());
    for (int i = 0; i < hot; ++i) {
      endpoints_[i]->log().RecordThroughput(now, rate * weights_[i] * period_s,
                                            params_.feed_period);
      if (static_cast<int>(tick_ % 10) == i % 10) {
        endpoints_[i]->log().RecordRoundTrip(now,
                                             10 * kMillisecond + static_cast<Duration>(i) * 100);
      }
    }
    ++tick_;
    sim_.Post(params_.feed_period, [this] { Feed(); });
  }

  void SampleOracle() {
    if (sim_.now() > params_.horizon) {
      return;
    }
    oracle_->Sample();
    sim_.Post(kOraclePeriod, [this] { SampleOracle(); });
  }

  // Rotates through the apps cancelling and immediately re-registering
  // their windows, so request-table slots are freed and reused throughout
  // the run.  A cancel that fails lost the race with an in-flight upcall,
  // whose handler re-registers instead.
  void CancelSweep() {
    if (sim_.now() >= params_.horizon) {
      return;
    }
    const int sweep = std::min<int>(params_.cancel_sweep, static_cast<int>(apps_.size()));
    for (int i = 0; i < sweep; ++i) {
      AppState& app = apps_[cancel_cursor_++ % apps_.size()];
      if (app.request == 0) {
        continue;
      }
      const RequestId cancelled = app.request;
      if (viceroy_.Cancel(cancelled).ok()) {
        oracle_->OnWindowCancelled(cancelled);
        app.request = 0;
        RegisterWindow(&app, viceroy_.CurrentLevel(app.id, ResourceId::kNetworkBandwidth));
      }
    }
    sim_.Post(kCancelSweepPeriod, [this] { CancelSweep(); });
  }

  TrialMetrics Metrics(double wall_seconds) {
    const UpcallDispatcher& upcalls = viceroy_.upcalls();
    const double events = static_cast<double>(sim_.events_processed());
    return TrialMetrics{
        {"sim_events", events, MetricDirection::kEither},
        {"upcalls", static_cast<double>(upcalls.delivered_count()), MetricDirection::kEither},
        {"windows_registered", static_cast<double>(windows_registered_),
         MetricDirection::kEither},
        {"upcall_latency_mean_ms", upcalls.latency_mean_us() / 1000.0,
         MetricDirection::kLowerIsBetter},
        {"upcall_latency_max_ms", DurationToMillis(upcalls.latency_max()),
         MetricDirection::kLowerIsBetter},
        {"model_scan_ops", static_cast<double>(strategy_->supply_model().scan_ops()),
         MetricDirection::kLowerIsBetter},
        {"oracle_violations", static_cast<double>(oracle_->violation_count()),
         MetricDirection::kLowerIsBetter},
        // wall_* metrics depend on the machine and are stripped by
        // `ody_bench run --strip-wall-out` before CI's byte comparison.
        {"wall_seconds", wall_seconds, MetricDirection::kEither},
        {"wall_events_per_sec", wall_seconds > 0.0 ? events / wall_seconds : 0.0,
         MetricDirection::kHigherIsBetter},
    };
  }

  const ScaleParams params_;
  const FuzzScenario scenario_;
  Simulation sim_;
  Link link_;
  // Endpoints are declared before the viceroy so they are destroyed after
  // it: the strategy's destructor unsubscribes from their observation logs
  // (the same ordering OdysseyClient enforces in its destructor).
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::vector<std::unique_ptr<Endpoint>> extra_endpoints_;
  Viceroy viceroy_;
  CentralizedStrategy* strategy_ = nullptr;
  std::unique_ptr<OracleSet> oracle_;
  std::vector<AppState> apps_;
  std::vector<double> weights_;
  uint64_t tick_ = 0;
  uint64_t windows_registered_ = 0;
  size_t cancel_cursor_ = 0;
};

TrialMetrics RunScaleTrial(const ScaleParams& params, uint64_t seed, TraceRecorder* trace) {
  ScaleRig rig(params, seed, trace);
  return rig.Run();
}

ScaleParams VariantParams(int apps, int hot, size_t audited) {
  ScaleParams params;
  params.apps = apps;
  params.hot_connections = hot;
  params.max_audited_connections = audited;
  return params;
}

}  // namespace

void RegisterScaleScenarios(ScenarioRegistry* registry) {
  Scenario scenario;
  scenario.name = "scale_core";
  scenario.description =
      "viceroy hot core under N re-registering windows with all fuzzing oracles on";

  const auto add = [&scenario](const std::string& name, const ScaleParams& params) {
    scenario.variants.push_back(ScenarioVariant{
        name, [params](uint64_t seed, TraceRecorder* trace) {
          return RunScaleTrial(params, seed, trace);
        }});
  };

  add("n100", VariantParams(100, 32, 0));
  add("n1k", VariantParams(1000, 64, 0));
  add("n10k", VariantParams(10000, 64, 2048));
  add("n100k", VariantParams(100000, 64, 2048));

  // The pre-scale reference stack at N=10k: the naive supply model's
  // O(connections) recomputation per query makes every re-evaluation
  // quadratic, so the variant runs a deliberately reduced schedule — the
  // comparison against n10k is the events-per-wall-second *rate*, which is
  // schedule-length independent.
  ScaleParams naive = VariantParams(10000, 2, 64);
  naive.kind = SupplyModelKind::kNaive;
  naive.mode = ReevaluateMode::kFullScan;
  naive.horizon = 1 * kSecond;
  naive.feed_period = 250 * kMillisecond;
  add("n10k_naive", naive);

  const Status status = registry->Register(std::move(scenario));
  ODY_ASSERT(status.ok(), "scale scenario registration failed");
}

CampaignSpec ScaleCampaign() {
  CampaignSpec spec;
  spec.name = "tier_scale";
  spec.description =
      "hot-core scaling: events/sec, upcall latency and oracle cleanliness at N in "
      "{100, 1k, 10k, 100k}, plus the naive reference rate at 10k";
  spec.sweeps = {
      SweepSpec{"scale_core", {"n100"}, 3},
      SweepSpec{"scale_core", {"n1k"}, 2},
      SweepSpec{"scale_core", {"n10k"}, 1},
      SweepSpec{"scale_core", {"n100k"}, 1},
      SweepSpec{"scale_core", {"n10k_naive"}, 1},
  };
  return spec;
}

}  // namespace odyssey
