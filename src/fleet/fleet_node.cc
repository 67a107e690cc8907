#include "src/fleet/fleet_node.h"

#include <charconv>
#include <cstdint>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "src/core/contract.h"
#include "src/metrics/experiment.h"
#include "src/strategies/strategy_registry.h"

namespace odyssey {

FleetServerId ServerGroupOf(const std::string& service, int servers) {
  constexpr std::string_view kPrefix = "fleet-s";
  if (service.starts_with(kPrefix)) {
    // The whole suffix must be digits that fit; an empty one fails too.
    const char* end = service.data() + service.size();
    uint64_t group = 0;
    const auto [ptr, ec] = std::from_chars(service.data() + kPrefix.size(), end, group);
    if (ec == std::errc() && ptr == end) {
      return static_cast<FleetServerId>(group % static_cast<uint64_t>(servers));
    }
  }
  uint64_t h = 1469598103934665603ULL;
  for (const char c : service) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return static_cast<FleetServerId>(h % static_cast<uint64_t>(servers));
}

void BuildFleetNodeClient(FleetNode* node, Simulation* sim, const std::string& strategy,
                          int servers) {
  const StrategyInfo* info = StrategyRegistry::Builtin().Find(strategy);
  ODY_ASSERT(info != nullptr, "unknown fleet strategy name");
  StrategyContext context;
  context.sim = sim;
  context.modulator = node->modulator.get();
  if (info->audited) {
    auto model = std::make_unique<FleetSupplyModel>(node->aggregator.get());
    node->model = model.get();
    context.injected_model = std::move(model);
  }
  std::unique_ptr<BandwidthStrategy> built =
      StrategyRegistry::Builtin().Create(strategy, std::move(context));
  node->centralized = built->audit_surface();
  node->client =
      std::make_unique<OdysseyClient>(sim, node->link.get(), std::move(built), kUpcallLatency);

  if (node->model != nullptr) {
    FleetSupplyModel* model = node->model;
    node->client->set_connection_observer(
        [model, servers](Endpoint* endpoint, const std::string& service) {
          model->MapConnection(endpoint->id(), ServerGroupOf(service, servers));
        });
    node->aggregator->set_report_source(
        [model, sim] { return model->LocalReports(sim->now()); });  // ody_lint: owned-capture
    return;
  }
  BandwidthStrategy* raw = &node->client->viceroy().strategy();
  node->aggregator->set_report_source([raw, servers, sim] {  // ody_lint: owned-capture
    std::vector<FleetAggregator::LocalReport> reports;
    if (!raw->HasEstimate()) {
      return reports;
    }
    for (int s = 0; s < servers; ++s) {
      FleetAggregator::LocalReport report;
      report.server = static_cast<FleetServerId>(s);
      report.supply_bps = raw->TotalSupply(sim->now());
      report.active = 1;
      reports.push_back(report);
    }
    return reports;
  });
}

void RegisterFleetNodes(FleetDispatcher* dispatcher, const FleetNodes& nodes) {
  for (size_t i = 0; i < nodes.size(); ++i) {
    FleetAggregator* aggregator = nodes[i]->aggregator.get();
    dispatcher->RegisterNode(
        static_cast<FleetNodeId>(i), &nodes[i]->waveform, nodes[i]->injector.get(),
        [aggregator](const FleetMessage& message) { aggregator->OnMessage(message); });
  }
}

std::vector<FleetOracleSet::NodeBinding> FleetOracleBindings(const FleetNodes& nodes) {
  std::vector<FleetOracleSet::NodeBinding> bindings;
  for (size_t i = 0; i < nodes.size(); ++i) {
    bindings.push_back(FleetOracleSet::NodeBinding{static_cast<FleetNodeId>(i), nodes[i]->model,
                                                   nodes[i]->aggregator.get()});
  }
  return bindings;
}

std::vector<OracleArming::Node> FleetArmingNodes(const FleetNodes& nodes) {
  std::vector<OracleArming::Node> armed;
  for (const auto& node : nodes) {
    armed.push_back(OracleArming::Node{&node->client->viceroy(), node->oracle.get()});
  }
  return armed;
}

void StartFleetNodes(const FleetNodes& nodes, Time horizon) {
  for (const auto& node : nodes) {
    node->modulator->Replay(node->waveform);
    node->aggregator->StopAt(horizon);
    node->aggregator->Start();
  }
}

bool FleetQuiescentTail(const FleetNodes& nodes, Time horizon, Time end) {
  // Longer than the fuzz generator's longest outage (kMaxOutage = 3 s) plus
  // a couple of announce rounds, so every node rebroadcasts at least once
  // after the last fault.
  constexpr Duration kConvergenceTail = 4 * kSecond;
  const Time tail_start = horizon - kConvergenceTail;
  bool quiescent = tail_start > 0;
  for (const auto& node : nodes) {
    quiescent = quiescent && FaultPlanQuietAfter(node->plan, tail_start) &&
                WaveformLiveThroughout(node->waveform, tail_start, end);
  }
  return quiescent;
}

}  // namespace odyssey
