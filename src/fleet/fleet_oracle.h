// Fleet-level invariant oracles (ISSUE 9; DESIGN.md §15).
//
// Two oracles extend the single-node set (src/check/oracles.h) to the
// multi-node world:
//
//   fleet-share-bounds   Every node's per-server cap lies within the
//                        per-server fair-share formulation: at least
//                        supply/(active_clients + 1), at most the merged
//                        server supply.
//   fleet-convergence    After a quiescent, fault-free tail every node's
//                        view of a server's supply agrees within tolerance
//                        (all nodes hold the same report set and query it
//                        at the same virtual instant, so disagreement means
//                        the merge is not a pure function of the set).
//
// Violations reuse FuzzViolation so the fuzz driver reports them alongside
// the single-node oracles'.

#ifndef SRC_FLEET_FLEET_ORACLE_H_
#define SRC_FLEET_FLEET_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/check/oracles.h"
#include "src/fleet/fleet_aggregator.h"
#include "src/fleet/fleet_message.h"
#include "src/fleet/fleet_supply_model.h"
#include "src/sim/simulation.h"

namespace odyssey {

class FleetOracleSet {
 public:
  struct NodeBinding {
    FleetNodeId node = 0;
    // Borrowed; |model| may be null (laissez-faire / blind-optimism nodes
    // have no fleet supply model — only the convergence oracle applies).
    const FleetSupplyModel* model = nullptr;
    const FleetAggregator* aggregator = nullptr;
  };

  FleetOracleSet(Simulation* sim, std::vector<NodeBinding> nodes, int servers);

  // Periodic audit: per-server share bounds on every node's current view.
  void Sample();

  // The relative per-server view spread fleet-convergence allows.
  static constexpr double kConvergenceTolerance = 0.01;

  // Final audit.  |check_convergence| only when the run guaranteed a
  // fault-free tail long enough for announce rounds to flush (see
  // FleetQuiescentTail in fleet_node.h).
  void Finish(bool check_convergence);

  // Largest relative per-server view spread seen at Finish, percent (0 when
  // fewer than two nodes held valid views).
  double final_spread_pct() const { return final_spread_pct_; }

  const std::vector<FuzzViolation>& violations() const { return violations_; }
  uint64_t violation_count() const { return total_violations_; }

 private:
  void Report(const std::string& oracle, std::string detail);

  Simulation* sim_;
  std::vector<NodeBinding> nodes_;
  int servers_;
  std::vector<FuzzViolation> violations_;
  uint64_t total_violations_ = 0;
  double final_spread_pct_ = 0.0;
};

// True when |waveform| has strictly positive bandwidth everywhere in
// [from, to] (the At() rule: the final segment persists).  The convergence
// oracle needs this — a radio shadow in the tail silently drops control
// traffic, which legitimately leaves peers with staler reports.
bool WaveformLiveThroughout(const ReplayTrace& waveform, Time from, Time to);

// True when |plan| cannot lose a fleet message after |tail_start|: no
// probabilistic or indexed drops at all (they are unbounded in time) and
// every outage window ends before the tail.
bool FaultPlanQuietAfter(const FaultPlan& plan, Time tail_start);

}  // namespace odyssey

#endif  // SRC_FLEET_FLEET_ORACLE_H_
