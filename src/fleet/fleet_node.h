// One client node of a fleet rig, plus the builder and node-list plumbing
// both fleet rigs (the tier_fleet campaign and the fleet fuzz runner) share.
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
#include <vector>

#include "src/check/oracles.h"
#include "src/core/odyssey_client.h"
#include "src/fleet/fleet_aggregator.h"
#include "src/fleet/fleet_dispatcher.h"
#include "src/fleet/fleet_message.h"
#include "src/fleet/fleet_oracle.h"
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

// Stable service -> server-group mapping.  Explicit "fleet-s<k>" services,
// where k is a non-empty run of decimal digits that fits in 64 bits, map to
// k mod |servers|; every other name hashes with FNV-1a 64 (std::hash is
// implementation-defined and would break cross-platform reproducibility).
// Never throws.
FleetServerId ServerGroupOf(const std::string& service, int servers);

// Builds node->client over node->link with the registry's |strategy| and
// wires node->aggregator's report source (plus, for audited strategies,
// node->model and the connection -> server-group mapping over |servers|
// groups).  Sets node->model and node->centralized.  Requires link,
// modulator and aggregator; asserts |strategy| is registered.
void BuildFleetNodeClient(FleetNode* node, Simulation* sim, const std::string& strategy,
                          int servers);

// A rig's nodes; node i has FleetNodeId i.
using FleetNodes = std::vector<std::unique_ptr<FleetNode>>;

// Registers every node on |dispatcher| in id order (so broadcast order is id
// order), delivering its messages to its aggregator.
void RegisterFleetNodes(FleetDispatcher* dispatcher, const FleetNodes& nodes);

std::vector<FleetOracleSet::NodeBinding> FleetOracleBindings(const FleetNodes& nodes);

// Node 0 leads (its oracle audits the simulation-global events).
std::vector<OracleArming::Node> FleetArmingNodes(const FleetNodes& nodes);

// Replays each node's waveform and runs its aggregator until |horizon|.
void StartFleetNodes(const FleetNodes& nodes, Time horizon);

// Whether the convergence oracle may arm: from kConvergenceTail before
// |horizon| on, no node's faults can lose a fleet message and every node's
// waveform stays live through |end| (a shadow silently drops control
// traffic, legitimately leaving peers with staler reports).
bool FleetQuiescentTail(const FleetNodes& nodes, Time horizon, Time end);

}  // namespace odyssey

#endif  // SRC_FLEET_FLEET_NODE_H_
