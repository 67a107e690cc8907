#include "src/fleet/fleet_fuzz.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/check/fuzz_driver.h"
#include "src/core/contract.h"
#include "src/core/odyssey_client.h"
#include "src/fleet/fleet_dispatcher.h"
#include "src/fleet/fleet_node.h"
#include "src/metrics/experiment.h"
#include "src/net/fault_injector.h"
#include "src/net/modulator.h"
#include "src/sim/random.h"

namespace odyssey {

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
  FuzzServerFarm servers(&sim);

  FleetDispatcher dispatcher(&sim);

  FleetNodes nodes;
  nodes.reserve(static_cast<size_t>(node_count));
  for (int i = 0; i < node_count; ++i) {
    auto node = std::make_unique<FleetNode>();
    const FuzzScenario node_scenario = FleetNodeScenario(scenario, i);
    node->waveform = BuildTrace(node_scenario);
    // Each node's injector stream is decoupled from its siblings': same
    // fault schedule, independent probabilistic draws.
    node->plan = BuildFaultPlan(scenario);
    node->plan.WithSeed(SplitMix64(node->plan.seed ^ static_cast<uint64_t>(i)).Next());

    const FuzzSegment first = node_scenario.segments.empty()
                                  ? FuzzSegment{kSecond, kHighBandwidth, kOneWayLatency}
                                  : node_scenario.segments.front();
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

    servers.InstallWardens(node->client.get());
    node->client->set_retry_policy(RetryPolicy::Default());
    node->client->set_fault_injector(node->injector.get());

    node->oracle = std::make_unique<OracleSet>(node_scenario, &sim, &node->client->viceroy(),
                                               node->centralized, node->link.get());
    node->oracle->set_max_audited_connections(options.max_audited_connections);
    nodes.push_back(std::move(node));
  }

  // Register every node on the bus after all rigs exist.
  RegisterFleetNodes(&dispatcher, nodes);
  const OracleArming arming(
      &sim, FleetArmingNodes(nodes),
      SeededDefects{options.selftest_mutation, options.selftest_tiebreak},
      [&result](AppId, uint64_t, RequestId, ResourceId, double, Time) {
        ++result.upcalls_delivered;
      });
  FleetOracleSet fleet_oracle(&sim, FleetOracleBindings(nodes), server_groups);

  const Time end = scenario.horizon + options.drain_grace;
  struct Sampler {
    Simulation* sim;
    FleetNodes* nodes;
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

  StartFleetNodes(nodes, scenario.horizon);

  sim.RunUntil(scenario.horizon);
  for (auto& driver : drivers) {
    driver->Stop();
  }
  sim.RunUntil(end);

  for (auto& node : nodes) {
    node->oracle->Finish();
  }
  fleet_oracle.Finish(FleetQuiescentTail(nodes, scenario.horizon, end));

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
  result.tie_pairs_audited = nodes.front()->oracle->tie_pairs_audited();
  return result;
}

}  // namespace odyssey
