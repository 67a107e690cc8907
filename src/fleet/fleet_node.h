// One client node of a fleet rig, and the one builder both fleet rigs (the
// tier_fleet campaign and the fleet fuzz runner) use for its strategy and
// client.
//
// A node's strategy comes from StrategyRegistry::Builtin() by name.  Audited
// (centralized-family) strategies get a FleetSupplyModel injected, so they
// arbitrate against the fleet-merged *server* supply, and every connection
// the client opens is mapped onto a server group.  Strategies that are not
// audited keep their isolated estimates but still publish one whole-link
// report per server group, so discovery and convergence cover them too.

#ifndef SRC_FLEET_FLEET_NODE_H_
#define SRC_FLEET_FLEET_NODE_H_

#include <memory>
#include <string>

#include "src/check/fuzz_scenario.h"
#include "src/check/oracles.h"
#include "src/core/odyssey_client.h"
#include "src/fleet/fleet_aggregator.h"
#include "src/fleet/fleet_message.h"
#include "src/fleet/fleet_supply_model.h"
#include "src/net/fault_injector.h"
#include "src/net/link.h"
#include "src/net/modulator.h"
#include "src/sim/simulation.h"
#include "src/strategies/centralized.h"
#include "src/tracemod/replay_trace.h"

namespace odyssey {

// Declaration order is destruction order in reverse: the oracle goes first,
// then the client (which detaches every endpoint from the strategy), and
// only then the aggregator the strategy's fleet model borrows.
struct FleetNode {
  FuzzScenario scenario;  // mirrors the node's waveform; referenced by the oracle
  ReplayTrace waveform;
  FaultPlan plan;
  std::unique_ptr<Link> link;
  std::unique_ptr<Modulator> modulator;
  std::unique_ptr<FaultInjector> injector;
  std::unique_ptr<FleetAggregator> aggregator;
  FleetSupplyModel* model = nullptr;           // owned by the strategy; audited strategies only
  CentralizedStrategy* centralized = nullptr;  // audit surface; null for isolated estimates
  std::unique_ptr<OdysseyClient> client;
  std::unique_ptr<OracleSet> oracle;
};

// Stable service -> server-group mapping.  Explicit "fleet-s<k>" services
// parse their suffix (mod |servers|); every other name hashes with FNV-1a 64
// (std::hash is implementation-defined and would break cross-platform
// reproducibility).
FleetServerId ServerGroupOf(const std::string& service, int servers);

// Builds node->client over node->link with the registry's |strategy| and
// wires node->aggregator's report source (plus, for audited strategies,
// node->model and the connection -> server-group mapping over |servers|
// groups).  Sets node->model and node->centralized.  Requires link,
// modulator and aggregator; asserts |strategy| is registered.
void BuildFleetNodeClient(FleetNode* node, Simulation* sim, const std::string& strategy,
                          int servers);

}  // namespace odyssey

#endif  // SRC_FLEET_FLEET_NODE_H_
