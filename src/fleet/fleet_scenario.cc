#include "src/fleet/fleet_scenario.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/check/fuzz_scenario.h"
#include "src/check/oracles.h"
#include "src/check/zoo_scenario.h"
#include "src/core/contract.h"
#include "src/core/odyssey_client.h"
#include "src/core/resource.h"
#include "src/fleet/fleet_aggregator.h"
#include "src/fleet/fleet_dispatcher.h"
#include "src/fleet/fleet_node.h"
#include "src/fleet/fleet_oracle.h"
#include "src/mobility/waveform_source.h"
#include "src/net/fault_injector.h"
#include "src/net/link.h"
#include "src/net/modulator.h"
#include "src/servers/file_server.h"
#include "src/servers/telemetry_server.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"
#include "src/tracemod/replay_trace.h"
#include "src/wardens/file_warden.h"
#include "src/wardens/telemetry_warden.h"

namespace odyssey {
namespace {

// Per-node stepped waveform, in KB/s per application; every quarter-horizon
// transition pushes availability outside the apps' [0.7x, 1.3x] windows.
constexpr double kFleetWaveKbps[] = {80.0, 220.0, 40.0, 140.0};

constexpr Duration kFeedPeriod = 50 * kMillisecond;
constexpr Duration kFairnessPeriod = 500 * kMillisecond;
constexpr Duration kOraclePeriod = 100 * kMillisecond;
constexpr Duration kDrainGrace = 2 * kSecond;
constexpr Duration kReadPeriod = 1 * kSecond;

struct FleetParams {
  int nodes = 2;
  int servers = 2;
  ZooStrategy strategy = kZooStrategies[0];
  bool mobility = false;
  Duration horizon = 8 * kSecond;
  int apps_per_node = 2;
};

// The node's waveform: fixed quarters scaled by a per-node factor in
// [0.6, 1.4), or a motion-generated trace (model rotated per node).  Either
// way a pure function of (params, seed, node).
ReplayTrace NodeWaveform(const FleetParams& params, uint64_t seed, int node) {
  SplitMix64 mix(seed ^ (0x746965725f666cULL + static_cast<uint64_t>(node) * 0x9e3779b97f4a7c15ULL));
  if (params.mobility) {
    MobilityScenarioSpec spec;
    spec.model = static_cast<MobilityModelKind>(node % kMobilityModelKinds);
    spec.layout = (node % 2 == 0) ? BaseStationLayout::kSingleCell : BaseStationLayout::kCellGrid;
    spec.speed_scale = 1.0 + static_cast<double>(node % 3);
    spec.duration = params.horizon + kDrainGrace;
    spec.ensure_live_tail = true;
    return MakeMobilityWaveform(spec, mix.Next());
  }
  const double factor = 0.6 + static_cast<double>(mix.Next() >> 11) * 0x1.0p-53 * 0.8;
  const double per_app = static_cast<double>(params.apps_per_node);
  ReplayTrace trace;
  for (const double kbps : kFleetWaveKbps) {
    trace.Append(params.horizon / 4, kbps * 1024.0 * factor * per_app, 10 * kMillisecond);
  }
  return trace;
}

// The FuzzScenario handed to each node's OracleSet: segments mirror the
// node's waveform so the byte-conservation bound is the true capacity
// integral of that node's link.
FuzzScenario MirrorScenario(const ReplayTrace& waveform) {
  FuzzScenario scenario;
  for (const TraceSegment& segment : waveform.segments()) {
    scenario.segments.push_back(FuzzSegment{segment.duration, segment.bandwidth_bps, segment.latency});
  }
  return scenario;
}

struct AppState {
  AppId id = 0;
  RequestId request = 0;  // current registration; 0 = none
  int server = 0;         // server group this app's connection maps to
  Endpoint* endpoint = nullptr;
  double weight = 1.0;    // synthetic-feed share of the node waveform
};

// One node's synthetic apps, parallel to the rig's FleetNodes.
struct NodeApps {
  std::vector<AppState> apps;
  uint64_t tick = 0;
};

class FleetRig {
 public:
  FleetRig(const FleetParams& params, uint64_t seed, TraceRecorder* trace)
      : params_(params), seed_(seed), sim_(seed) {
    ODY_ASSERT(params.servers >= 1 && params.servers <= 8, "fleet rig server count out of range");
    sim_.set_trace(trace);
  }

  TrialMetrics Run() {
    // Wall timing feeds only the stripped wall_* metrics, never the trial.
    // ody-lint: allow(fleet-pod-message)
    const auto wall_start = std::chrono::steady_clock::now();
    Build();
    const OracleArming arming(&sim_, FleetArmingNodes(nodes_));
    Start();
    sim_.RunUntil(params_.horizon + kDrainGrace);
    for (auto& node : nodes_) {
      node->oracle->Finish();
    }
    fleet_oracle_->Finish(
        FleetQuiescentTail(nodes_, params_.horizon, params_.horizon + kDrainGrace));
    // ody-lint: allow(fleet-pod-message)
    const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - wall_start;
    return Metrics(wall.count());
  }

 private:
  void Build() {
    file_server_ = std::make_unique<FileServer>(&sim_.rng());
    file_server_->Publish("doc/0", 32.0 * 1024.0);
    telemetry_server_ = std::make_unique<TelemetryServer>(&sim_);
    telemetry_server_->CreateFeed("feed0", 200 * kMillisecond, 100.0, 5.0);
    dispatcher_ = std::make_unique<FleetDispatcher>(&sim_);

    nodes_.reserve(static_cast<size_t>(params_.nodes));
    node_apps_.reserve(static_cast<size_t>(params_.nodes));
    for (int i = 0; i < params_.nodes; ++i) {
      BuildNode(i);
    }
    RegisterFleetNodes(dispatcher_.get(), nodes_);
    fleet_oracle_ =
        std::make_unique<FleetOracleSet>(&sim_, FleetOracleBindings(nodes_), params_.servers);
  }

  void BuildNode(int index) {
    auto node = std::make_unique<FleetNode>();
    node->waveform = NodeWaveform(params_, seed_, index);
    // Every fourth node (offset 1) rides out a mid-run outage, ending well
    // before the convergence tail.
    if (index % 4 == 1) {
      node->plan.WithSeed(SplitMix64(seed_ ^ (0x6f7574ULL + static_cast<uint64_t>(index))).Next());
      node->plan.WithOutage(params_.horizon / 4, 1 * kSecond);
    }
    const TraceSegment first = node->waveform.At(0);
    node->link = std::make_unique<Link>(&sim_, first.bandwidth_bps, first.latency);
    node->modulator = std::make_unique<Modulator>(&sim_, node->link.get());
    node->injector = std::make_unique<FaultInjector>(&sim_, node->link.get());
    if (!node->plan.empty()) {
      node->injector->Arm(node->plan);
    }
    node->aggregator = std::make_unique<FleetAggregator>(&sim_, dispatcher_.get(),
                                                         static_cast<FleetNodeId>(index), seed_);

    BuildFleetNodeClient(node.get(), &sim_, params_.strategy.registry, params_.servers);
    node->client->InstallWarden(std::make_unique<FileWarden>(file_server_.get()));
    node->client->InstallWarden(std::make_unique<TelemetryWarden>(telemetry_server_.get()));
    node->client->set_fault_injector(node->injector.get());

    node->oracle = std::make_unique<OracleSet>(MirrorScenario(node->waveform), &sim_,
                                               &node->client->viceroy(), node->centralized,
                                               node->link.get());

    SplitMix64 mix(seed_ ^ (0x61707073ULL + static_cast<uint64_t>(index)));
    NodeApps& apps = node_apps_.emplace_back();
    for (int a = 0; a < params_.apps_per_node; ++a) {
      AppState app;
      app.id = node->client->RegisterApplication("fleet" + std::to_string(index) + "-" +
                                                 std::to_string(a));
      app.server = a % params_.servers;
      app.endpoint =
          node->client->OpenConnection(app.id, "fleet-s" + std::to_string(app.server));
      app.weight = 0.5 + static_cast<double>(mix.Next() >> 11) * 0x1.0p-53;
      apps.apps.push_back(app);
    }
    nodes_.push_back(std::move(node));
  }

  void Start() {
    StartFleetNodes(nodes_, params_.horizon);
    for (size_t n = 0; n < nodes_.size(); ++n) {
      FleetNode* node = nodes_[n].get();
      for (AppState& app : node_apps_[n].apps) {
        RegisterWindow(node, &app,
                       node->client->CurrentLevel(app.id, ResourceId::kNetworkBandwidth));
      }
    }
    sim_.Post(kFeedPeriod, [this] { Feed(); });
    sim_.Post(kOraclePeriod, [this] { SampleOracles(); });
    // Fairness sampling skips the first quarter (cold estimators).
    sim_.PostAt(params_.horizon / 4, [this] { SampleFairness(); });
    sim_.Post(kReadPeriod, [this] { ReadSweep(); });
  }

  void RegisterWindow(FleetNode* node, AppState* app, double level) {
    for (int attempt = 0; attempt < 4; ++attempt) {
      ResourceDescriptor descriptor;
      descriptor.resource = ResourceId::kNetworkBandwidth;
      descriptor.lower = level * 0.7;
      descriptor.upper = std::max(level * 1.3, descriptor.lower + 1.0);
      descriptor.handler = [this, node, app](RequestId, ResourceId resource, double new_level) {
        if (resource != ResourceId::kNetworkBandwidth) {
          return;
        }
        app->request = 0;  // the delivered upcall consumed the registration
        RegisterWindow(node, app, new_level);
      };
      const RequestResult result = node->client->Request(app->id, descriptor);
      if (result.ok()) {
        app->request = result.id;
        ++windows_registered_;
        node->oracle->OnWindowRegistered(app->id, result.id, descriptor.lower, descriptor.upper);
        return;
      }
      level = result.current_level;
    }
  }

  // Synthetic passive observations, as in the scale rig: each app's
  // connection reports its weighted share of the node waveform once per
  // feed period, with a round trip every tenth tick.
  void Feed() {
    const Time now = sim_.now();
    if (now >= params_.horizon) {
      return;
    }
    const double period_s = DurationToSeconds(kFeedPeriod);
    for (size_t n = 0; n < nodes_.size(); ++n) {
      const double rate =
          nodes_[n]->waveform.BandwidthAt(now) / static_cast<double>(params_.apps_per_node);
      NodeApps& apps = node_apps_[n];
      int i = 0;
      for (AppState& app : apps.apps) {
        app.endpoint->log().RecordThroughput(now, rate * app.weight * period_s, kFeedPeriod);
        if (static_cast<int>(apps.tick % 10) == i % 10) {
          app.endpoint->log().RecordRoundTrip(
              now, 10 * kMillisecond + static_cast<Duration>(i) * 100);
        }
        ++i;
      }
      ++apps.tick;
    }
    sim_.Post(kFeedPeriod, [this] { Feed(); });
  }

  // Real bytes through the warden path: each node's first app re-reads the
  // shared document once a second, so RPC retries and outage handling stay
  // exercised alongside the synthetic feed.
  void ReadSweep() {
    if (sim_.now() >= params_.horizon) {
      return;
    }
    for (size_t n = 0; n < nodes_.size(); ++n) {
      nodes_[n]->client->Read(node_apps_[n].apps.front().id,
                              std::string(kOdysseyRoot) + "files/doc/0",
                              [](Status, std::string) {});
    }
    sim_.Post(kReadPeriod, [this] { ReadSweep(); });
  }

  void SampleOracles() {
    if (sim_.now() > params_.horizon) {
      return;
    }
    for (auto& node : nodes_) {
      node->oracle->Sample();
    }
    fleet_oracle_->Sample();
    sim_.Post(kOraclePeriod, [this] { SampleOracles(); });
  }

  // Fairness across the fleet, per server: each node's claim on server s is
  // the sum of its mapped apps' current levels.  Jain index over the claims
  // measures fairness; summed claims over the server's capacity share
  // (total fleet nominal bandwidth / servers) measures overclaim.
  void SampleFairness() {
    const Time now = sim_.now();
    if (now > params_.horizon) {
      return;
    }
    double fleet_nominal = 0.0;
    for (const auto& node : nodes_) {
      fleet_nominal += node->waveform.BandwidthAt(now);
    }
    const double server_capacity = fleet_nominal / static_cast<double>(params_.servers);
    for (int s = 0; s < params_.servers; ++s) {
      double sum = 0.0;
      double sum_sq = 0.0;
      for (size_t n = 0; n < nodes_.size(); ++n) {
        double claim = 0.0;
        for (const AppState& app : node_apps_[n].apps) {
          if (app.server == s) {
            claim += nodes_[n]->client->CurrentLevel(app.id, ResourceId::kNetworkBandwidth);
          }
        }
        sum += claim;
        sum_sq += claim * claim;
      }
      auto& stats = fairness_[static_cast<size_t>(s)];
      if (sum_sq > 0.0) {
        stats.jain_sum += (sum * sum) / (static_cast<double>(nodes_.size()) * sum_sq);
        ++stats.jain_samples;
      }
      if (server_capacity > 0.0) {
        stats.overclaim_max = std::max(stats.overclaim_max, sum / server_capacity);
        stats.overclaim_sum += sum / server_capacity;
        ++stats.overclaim_samples;
      }
    }
    sim_.Post(kFairnessPeriod, [this] { SampleFairness(); });
  }

  TrialMetrics Metrics(double wall_seconds) {
    const double events = static_cast<double>(sim_.events_processed());
    double upcalls = 0.0;
    double latency_mean_sum = 0.0;
    double latency_max_ms = 0.0;
    uint64_t violations = fleet_oracle_->violation_count();
    for (const auto& node : nodes_) {
      const UpcallDispatcher& dispatcher = node->client->viceroy().upcalls();
      upcalls += static_cast<double>(dispatcher.delivered_count());
      latency_mean_sum += dispatcher.latency_mean_us() / 1000.0;
      latency_max_ms = std::max(latency_max_ms, DurationToMillis(dispatcher.latency_max()));
      violations += node->oracle->violation_count();
    }
    TrialMetrics metrics{
        {"sim_events", events, MetricDirection::kEither},
        {"upcalls", upcalls, MetricDirection::kEither},
        {"windows_registered", static_cast<double>(windows_registered_),
         MetricDirection::kEither},
        {"upcall_latency_mean_ms", latency_mean_sum / static_cast<double>(nodes_.size()),
         MetricDirection::kLowerIsBetter},
        {"upcall_latency_max_ms", latency_max_ms, MetricDirection::kLowerIsBetter},
        {"fleet_msgs", static_cast<double>(dispatcher_->messages_delivered()),
         MetricDirection::kEither},
        {"agg_spread_pct", fleet_oracle_->final_spread_pct(), MetricDirection::kLowerIsBetter},
        {"oracle_violations", static_cast<double>(violations), MetricDirection::kLowerIsBetter},
    };
    for (int s = 0; s < params_.servers; ++s) {
      const auto& stats = fairness_[static_cast<size_t>(s)];
      metrics.push_back({"fairness_s" + std::to_string(s),
                         stats.jain_samples > 0
                             ? stats.jain_sum / static_cast<double>(stats.jain_samples)
                             : 0.0,
                         MetricDirection::kHigherIsBetter});
      metrics.push_back({"overclaim_peak_s" + std::to_string(s), stats.overclaim_max,
                         MetricDirection::kLowerIsBetter});
      metrics.push_back({"overclaim_mean_s" + std::to_string(s),
                         stats.overclaim_samples > 0
                             ? stats.overclaim_sum / static_cast<double>(stats.overclaim_samples)
                             : 0.0,
                         MetricDirection::kLowerIsBetter});
    }
    // wall_* metrics depend on the machine and are stripped by
    // `ody_bench run --strip-wall-out` before CI's byte comparison.
    metrics.push_back({"wall_seconds", wall_seconds, MetricDirection::kEither});
    metrics.push_back({"wall_events_per_sec", wall_seconds > 0.0 ? events / wall_seconds : 0.0,
                       MetricDirection::kHigherIsBetter});
    return metrics;
  }

  struct FairnessStats {
    double jain_sum = 0.0;
    int jain_samples = 0;
    double overclaim_max = 0.0;
    double overclaim_sum = 0.0;
    int overclaim_samples = 0;
  };

  const FleetParams params_;
  const uint64_t seed_;
  Simulation sim_;
  std::unique_ptr<FileServer> file_server_;
  std::unique_ptr<TelemetryServer> telemetry_server_;
  std::unique_ptr<FleetDispatcher> dispatcher_;
  FleetNodes nodes_;
  std::vector<NodeApps> node_apps_;  // parallel to nodes_
  std::unique_ptr<FleetOracleSet> fleet_oracle_;
  // Indexed by server group; the rig caps servers well below this.
  FairnessStats fairness_[8] = {};
  uint64_t windows_registered_ = 0;
};

TrialMetrics RunFleetTrial(const FleetParams& params, uint64_t seed, TraceRecorder* trace) {
  FleetRig rig(params, seed, trace);
  return rig.Run();
}

}  // namespace

void RegisterFleetScenarios(ScenarioRegistry* registry) {
  Scenario scenario;
  scenario.name = "fleet_share";
  scenario.description =
      "N viceroys sharing M servers through fleet estimate aggregation, per strategy and "
      "waveform family, with all fuzzing oracles on";

  const auto add = [&scenario](const FleetParams& params) {
    // Appended piecewise: g++ 12 raises a -Wrestrict false positive inside
    // libstdc++ on a `"literal" + std::string&&` chain at -O3.
    std::string name = "n";
    name += std::to_string(params.nodes);
    name += "_";
    name += params.strategy.token;
    name += "_";
    name += params.mobility ? "mob" : "fixed";
    scenario.variants.push_back(ScenarioVariant{
        name, [params](uint64_t seed, TraceRecorder* trace) {
          return RunFleetTrial(params, seed, trace);
        }});
  };

  for (const int nodes : {2, 8, 32, 128}) {
    for (const ZooStrategy& strategy : kZooStrategies) {
      for (const bool mobility : {false, true}) {
        FleetParams params;
        params.nodes = nodes;
        params.strategy = strategy;
        params.mobility = mobility;
        add(params);
      }
    }
  }

  const Status status = registry->Register(std::move(scenario));
  ODY_ASSERT(status.ok(), "fleet scenario registration failed");
}

CampaignSpec FleetCampaign() {
  CampaignSpec spec;
  spec.name = "tier_fleet";
  spec.description =
      "fleet sharing: per-server fairness, overclaim and aggregation convergence for N in "
      "{2, 8, 32, 128} nodes under centralized, laissez-faire and blind-optimism management";
  const auto sweep = [&spec](int nodes, int trials) {
    for (const char* strategy : {"odyssey", "laissez", "blind"}) {
      for (const char* wave : {"fixed", "mob"}) {
        spec.sweeps.push_back(SweepSpec{
            "fleet_share",
            {"n" + std::to_string(nodes) + "_" + std::string(strategy) + "_" + wave},
            trials});
      }
    }
  };
  sweep(2, 2);
  sweep(8, 1);
  sweep(32, 1);
  sweep(128, 1);
  return spec;
}

}  // namespace odyssey
