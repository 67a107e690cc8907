#include "src/fleet/fleet_fuzz.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/check/fuzz_driver.h"
#include "src/core/contract.h"
#include "src/core/odyssey_client.h"
#include "src/fleet/fleet_aggregator.h"
#include "src/fleet/fleet_dispatcher.h"
#include "src/fleet/fleet_node.h"
#include "src/fleet/fleet_oracle.h"
#include "src/metrics/experiment.h"
#include "src/net/fault_injector.h"
#include "src/net/modulator.h"
#include "src/servers/calibration.h"
#include "src/servers/file_server.h"
#include "src/servers/telemetry_server.h"
#include "src/sim/random.h"
#include "src/tracemod/replay_trace.h"
#include "src/wardens/bitstream_warden.h"
#include "src/wardens/file_warden.h"
#include "src/wardens/speech_warden.h"
#include "src/wardens/telemetry_warden.h"
#include "src/wardens/video_warden.h"
#include "src/wardens/web_warden.h"

namespace odyssey {
namespace {

// The quiescent tail the convergence oracle demands: longer than the
// generator's longest outage (kMaxOutage = 3s) plus a couple of announce
// rounds, so every node rebroadcasts at least once after the last fault.
constexpr Duration kConvergenceTail = 4 * kSecond;

}  // namespace

FuzzScenario FleetNodeScenario(const FuzzScenario& scenario, int node) {
  FuzzScenario out = scenario;
  if (node == 0) {
    return out;
  }
  SplitMix64 mix(scenario.seed ^ (0x666c656574ULL + static_cast<uint64_t>(node) * 0x9e3779b97f4a7c15ULL));
  const double factor = 0.5 + static_cast<double>(mix.Next() >> 11) * 0x1.0p-53;
  for (FuzzSegment& segment : out.segments) {
    if (segment.bandwidth_bps > 0.0) {
      segment.bandwidth_bps *= factor;
    }
  }
  return out;
}

FuzzRunResult RunFleetFuzzScenario(const FuzzScenario& scenario, const FuzzRunOptions& options) {
  ODY_ASSERT(scenario.fleet_nodes >= 2, "fleet runner needs a fleet-dimension scenario");
  ODY_ASSERT(scenario.fleet_servers >= 1, "fleet scenario names no server groups");
  FuzzRunResult result;
  const int node_count = scenario.fleet_nodes;
  const int server_groups = scenario.fleet_servers;

  Simulation sim(scenario.seed);
  if (options.trace != nullptr) {
    sim.set_trace(options.trace);
  }

  // One shared server farm, exactly the single-node runner's catalog.
  VideoServer video_server(&sim.rng());
  const Status added =
      video_server.AddMovie(VideoServer::MakeDefaultMovie(kDefaultMovie, kVideoFramesPerTrial));
  ODY_ASSERT(added.ok(), "fleet fuzz rig failed to seed the video catalog");
  DistillationServer distillation_server(&sim.rng());
  distillation_server.PublishImage(kTestImageUrl, kWebImageBytes);
  JanusServer janus_server(&sim.rng());
  FileServer file_server(&sim.rng());
  for (int i = 0; i < kFuzzFiles; ++i) {
    file_server.Publish("doc/" + std::to_string(i), (8.0 + 16.0 * i) * 1024.0);
  }
  TelemetryServer telemetry_server(&sim);
  telemetry_server.CreateFeed(kFuzzFeed, 200 * kMillisecond, 100.0, 5.0);

  FleetDispatcher dispatcher(&sim);

  std::vector<std::unique_ptr<FleetNode>> nodes;
  nodes.reserve(static_cast<size_t>(node_count));
  for (int i = 0; i < node_count; ++i) {
    auto node = std::make_unique<FleetNode>();
    node->scenario = FleetNodeScenario(scenario, i);
    node->waveform = BuildTrace(node->scenario);
    // Each node's injector stream is decoupled from its siblings': same
    // fault schedule, independent probabilistic draws.
    node->plan = BuildFaultPlan(scenario);
    node->plan.WithSeed(SplitMix64(node->plan.seed ^ static_cast<uint64_t>(i)).Next());

    const FuzzSegment first = node->scenario.segments.empty()
                                  ? FuzzSegment{kSecond, kHighBandwidth, kOneWayLatency}
                                  : node->scenario.segments.front();
    node->link = std::make_unique<Link>(&sim, first.bandwidth_bps, first.latency);
    node->modulator = std::make_unique<Modulator>(&sim, node->link.get());
    node->injector = std::make_unique<FaultInjector>(&sim, node->link.get());
    node->injector->Arm(node->plan);

    node->aggregator = std::make_unique<FleetAggregator>(
        &sim, &dispatcher, static_cast<FleetNodeId>(i), scenario.seed);
    // The node's strategy comes from the registry (the scenario's strategy
    // dimension).
    BuildFleetNodeClient(node.get(), &sim,
                         scenario.strategy.empty() ? "odyssey" : scenario.strategy,
                         server_groups);

    node->client->InstallWarden(std::make_unique<VideoWarden>(&video_server));
    node->client->InstallWarden(std::make_unique<WebWarden>(&distillation_server));
    node->client->InstallWarden(std::make_unique<SpeechWarden>(&janus_server));
    node->client->InstallWarden(std::make_unique<BitstreamWarden>());
    node->client->InstallWarden(std::make_unique<FileWarden>(&file_server));
    node->client->InstallWarden(std::make_unique<TelemetryWarden>(&telemetry_server));
    node->client->set_retry_policy(RetryPolicy::Default());
    node->client->set_fault_injector(node->injector.get());

    node->oracle = std::make_unique<OracleSet>(node->scenario, &sim, &node->client->viceroy(),
                                               node->centralized, node->link.get());
    node->oracle->set_max_audited_connections(options.max_audited_connections);
    nodes.push_back(std::move(node));
  }

  // Register every node on the bus after all rigs exist (ascending ids, so
  // broadcast order is the id order).
  for (int i = 0; i < node_count; ++i) {
    FleetAggregator* aggregator = nodes[static_cast<size_t>(i)]->aggregator.get();
    dispatcher.RegisterNode(static_cast<FleetNodeId>(i), &nodes[static_cast<size_t>(i)]->waveform,
                            nodes[static_cast<size_t>(i)]->injector.get(),
                            [aggregator](const FleetMessage& message) {  // ody_lint: owned-capture
                              aggregator->OnMessage(message);
                            });
  }

  for (size_t i = 0; i < nodes.size(); ++i) {
    FleetNode* node = nodes[i].get();
    OracleSet* oracle = node->oracle.get();
    const bool mutate = options.selftest_mutation && i == 0;
    node->client->viceroy().upcalls().set_delivery_observer(
        [oracle, &result, mutate](AppId app, uint64_t seq, RequestId request, ResourceId resource,
                                  double level, Time posted_at) {
          ++result.upcalls_delivered;
          oracle->OnUpcallDelivered(app, seq, request, resource, level, posted_at);
#ifdef ODYSSEY_FUZZ_SELFTEST
          if (mutate && seq == 2) {
            // Same seeded defect as the single-node runner: node 0's second
            // upcall per app is observed twice (CI's fuzz-selftest job).
            oracle->OnUpcallDelivered(app, seq, request, resource, level, posted_at);
          }
#else
          (void)mutate;
#endif
        });
  }
  // The step/tie observers are simulation-global; node 0's oracle audits
  // them on behalf of the whole fleet.
  OracleSet* lead_oracle = nodes.front()->oracle.get();
  sim.set_step_observer([lead_oracle](Time when) { lead_oracle->OnStep(when); });  // ody_lint: owned-capture
  // ody_lint: owned-capture
  sim.set_tie_observer([lead_oracle](Time when, uint64_t prev_seq, uint64_t seq) {
    lead_oracle->OnTieBreak(when, prev_seq, seq);
  });
#ifdef ODYSSEY_FUZZ_SELFTEST
  if (options.selftest_tiebreak) {
    sim.set_selftest_lifo_ties(true);
  }
#endif

  std::vector<FleetOracleSet::NodeBinding> bindings;
  bindings.reserve(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    bindings.push_back(FleetOracleSet::NodeBinding{static_cast<FleetNodeId>(i),
                                                   nodes[i]->model, nodes[i]->aggregator.get()});
  }
  FleetOracleSet fleet_oracle(&sim, std::move(bindings), server_groups);

  const Time end = scenario.horizon + options.drain_grace;
  struct Sampler {
    Simulation* sim;
    std::vector<std::unique_ptr<FleetNode>>* nodes;
    FleetOracleSet* fleet_oracle;
    Time end;
    Duration period;
    void Tick() {
      for (auto& node : *nodes) {
        node->oracle->Sample();
      }
      fleet_oracle->Sample();
      if (sim->now() < end) {
        sim->Schedule(period, [this] { Tick(); });
      }
    }
  };
  Sampler sampler{&sim, &nodes, &fleet_oracle, end, options.oracle_period};
  // The sampler stops rescheduling at |end| and the sim drains before it
  // leaves scope.
  sim.Schedule(options.oracle_period, [&sampler] { sampler.Tick(); });  // ody_lint: owned-capture

  // Apps are dealt round-robin across the nodes, each driven by the shared
  // FuzzDriver against its node's client and oracle.
  std::vector<std::unique_ptr<FuzzDriver>> drivers;
  drivers.reserve(scenario.apps.size());
  for (size_t i = 0; i < scenario.apps.size(); ++i) {
    FleetNode* node = nodes[i % nodes.size()].get();
    drivers.push_back(std::make_unique<FuzzDriver>(node->client.get(), node->oracle.get(),
                                                   scenario.apps[i], static_cast<int>(i), &result));
    drivers.back()->Start();
  }

  for (auto& node : nodes) {
    node->modulator->Replay(node->waveform);
    node->aggregator->StopAt(scenario.horizon);
    node->aggregator->Start();
  }

  sim.RunUntil(scenario.horizon);
  for (auto& driver : drivers) {
    driver->Stop();
  }
  sim.RunUntil(end);

  // The convergence oracle only arms when the tail was provably quiet:
  // no fault kind that can eat a fleet message near or after the horizon,
  // and every node's radio live through the drain (a shadow silently drops
  // control traffic, legitimately leaving peers with staler reports).
  const Time tail_start = scenario.horizon - kConvergenceTail;
  bool quiescent_tail = tail_start > 0;
  for (const auto& node : nodes) {
    quiescent_tail = quiescent_tail && FaultPlanQuietAfter(node->plan, tail_start) &&
                     WaveformLiveThroughout(node->waveform, tail_start, end);
  }
  for (auto& node : nodes) {
    node->oracle->Finish();
  }
  fleet_oracle.Finish(quiescent_tail, 0.01);

  // Detach the observers before the stack unwinds: the oracles borrow the
  // viceroys and links, and no event may fire past this point anyway.
  for (auto& node : nodes) {
    node->client->viceroy().upcalls().set_delivery_observer({});
  }
  sim.set_step_observer({});
  sim.set_tie_observer({});

  for (const auto& node : nodes) {
    for (const FuzzViolation& violation : node->oracle->violations()) {
      result.violations.push_back(violation);
    }
    result.violation_count += node->oracle->violation_count();
    result.bytes_delivered += node->link->bytes_delivered();
  }
  for (const FuzzViolation& violation : fleet_oracle.violations()) {
    result.violations.push_back(violation);
  }
  result.violation_count += fleet_oracle.violation_count();
  result.tie_pairs_audited = lead_oracle->tie_pairs_audited();
  return result;
}

}  // namespace odyssey
