#include "src/fleet/fleet_node.h"

#include <cstdint>
#include <utility>
#include <vector>

#include "src/core/contract.h"
#include "src/metrics/experiment.h"
#include "src/strategies/strategy_registry.h"

namespace odyssey {

FleetServerId ServerGroupOf(const std::string& service, int servers) {
  constexpr char kPrefix[] = "fleet-s";
  if (service.rfind(kPrefix, 0) == 0) {
    return static_cast<FleetServerId>(
        std::stoul(service.substr(sizeof(kPrefix) - 1)) % static_cast<unsigned long>(servers));
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

}  // namespace odyssey
