// Invariant oracles for the simulation fuzzer.
//
// An oracle is an always-on checker attached to a running Odyssey stack that
// records a structured violation when a system-level invariant breaks,
// instead of aborting — the fuzzer wants to harvest every violation in a
// run, attribute it to an oracle by name, and hand the scenario to the
// shrinker.  The oracles audit the contracts the paper's design leans on:
//
//   upcall-order / upcall-duplicate / upcall-lost   exactly-once, in-order
//       per-app delivery (§4.3), observed at the dispatcher;
//   upcall-after-cancel     no delivery for a registration that was
//       successfully cancelled (a cancel that returns ok proves the entry
//       was still in the table, so no upcall was ever posted for it);
//   upcall-window           a delivered level must lie outside the window
//       it was registered with (upcalls fire on violation, never inside);
//   upcall-unknown-request  every delivery maps to a registration the
//       driver made;
//   fair-share              per-connection availability respects the
//       fair-share floor supply/(active+1) and the supply ceiling (§6.2.1);
//   supply-bounds           the supply estimate is finite and non-negative;
//   ewma-bounds             per-connection smoothed estimates are finite
//       and non-negative (rtt strictly positive once observed);
//   byte-conservation       the link never delivers more bytes than the
//       integral of the nominal waveform;
//   clock-monotonicity      event firing times never run backwards;
//   same-time-order         every pair of events fired at an identical
//       virtual timestamp pops in scheduling order — the deterministic
//       (when, seq) tie-break key is a total order and the queue honors
//       it, which is what makes same-instant bursts (batched upcalls,
//       reaction storms to one supply step) replay identically;
//   upcall-stranded         no upcall remains queued after the run drains
//       (no receiver is ever blocked by the fuzzer's drivers).

#ifndef SRC_CHECK_ORACLES_H_
#define SRC_CHECK_ORACLES_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/check/fuzz_scenario.h"
#include "src/core/resource.h"
#include "src/core/viceroy.h"
#include "src/net/link.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"
#include "src/strategies/centralized.h"
#include "src/tracemod/replay_trace.h"

namespace odyssey {

// One recorded invariant violation.
struct FuzzViolation {
  std::string oracle;  // which invariant (names above)
  Time at = 0;         // virtual time of detection
  AppId app = 0;       // 0 when not app-scoped
  std::string detail;  // human-readable specifics
};

// Formats violations one per line (for assertion messages and the CLI).
std::string FormatViolations(const std::vector<FuzzViolation>& violations);

class OracleSet {
 public:
  // Caps recorded violations per oracle name; later ones are counted but
  // not stored, so a systematically broken invariant cannot balloon memory.
  static constexpr size_t kMaxRecordedPerOracle = 32;

  // Audits the stack owned by the runner.  All pointers are borrowed and
  // must outlive the oracle set.  |scenario| supplies the nominal waveform
  // for the byte-conservation bound (copied).  |strategy| may be null (fleet nodes
  // running laissez-faire or blind optimism); the supply/fair-share audits
  // are skipped and the strategy-independent oracles still run.
  OracleSet(const FuzzScenario& scenario, Simulation* sim, Viceroy* viceroy,
            CentralizedStrategy* strategy, Link* link);

  OracleSet(const OracleSet&) = delete;
  OracleSet& operator=(const OracleSet&) = delete;

  // --- Hooks wired by OracleArming ---

  // From UpcallDispatcher's delivery observer.
  void OnUpcallDelivered(AppId app, uint64_t seq, RequestId request, ResourceId resource,
                         double level, Time posted_at);

  // From Simulation's step observer: |when| is the next event's firing time.
  void OnStep(Time when);

  // From the event queue's tie observer: two events fired consecutively at
  // the identical virtual time |when|, scheduled as |prev_seq| then |seq|.
  // The tie-break contract requires prev_seq < seq (FIFO among ties).
  void OnTieBreak(Time when, uint64_t prev_seq, uint64_t seq);

  // Driver bookkeeping: a successful request() / cancel() call.
  void OnWindowRegistered(AppId app, RequestId id, double lower, double upper);
  void OnWindowCancelled(RequestId id);

  // Periodic audit of estimator, fair-share and link-conservation bounds.
  void Sample();

  // Caps how many connections one Sample() audits for the fair-share and
  // ewma bounds (0 = all).  Above the cap, samples audit a rotating window
  // so every connection is still covered across consecutive samples; the
  // tier_scale campaign sets this to keep oracle cost sub-linear in N.
  void set_max_audited_connections(size_t cap) { max_audited_connections_ = cap; }

  // End-of-run audit, after the drain grace period.
  void Finish();

  const std::vector<FuzzViolation>& violations() const { return violations_; }
  // Total violations detected, including ones beyond the recording cap.
  uint64_t violation_count() const { return total_violations_; }
  // Same-timestamp pairs the tie-break auditor examined (violating or not)
  // — the audit's coverage figure, reported by ody_fuzz's totals line.
  uint64_t tie_pairs_audited() const { return tie_pairs_audited_; }

 private:
  struct Window {
    AppId app = 0;
    double lower = 0.0;
    double upper = 0.0;
  };

  void Report(const std::string& oracle, AppId app, std::string detail);

  const ReplayTrace capacity_;  // the nominal waveform, for byte conservation
  Simulation* sim_;
  Viceroy* viceroy_;
  CentralizedStrategy* strategy_;
  Link* link_;

  std::vector<uint64_t> last_seq_;  // by AppId; 0 = nothing delivered yet
  std::unordered_map<RequestId, Window> registered_;
  std::unordered_set<RequestId> cancelled_;
  Time last_event_time_ = 0;
  uint64_t tie_pairs_audited_ = 0;
  double last_bytes_delivered_ = 0.0;
  size_t max_audited_connections_ = 0;
  size_t audit_cursor_ = 0;

  std::vector<FuzzViolation> violations_;
  std::map<std::string, uint64_t> per_oracle_count_;
  uint64_t total_violations_ = 0;
};

// The seeded defects of an ODYSSEY_FUZZ_SELFTEST build (FuzzRunOptions'
// selftest flags), with which CI proves the oracles and the shrinker end to
// end.  Inert when not compiled in.
struct SeededDefects {
  bool duplicate_delivery = false;  // node 0's second upcall per app is observed twice
  bool lifo_ties = false;           // same-timestamp events pop newest-first
};

// Arms oracle sets on a rig for the arming's lifetime: the one place the
// dispatchers' delivery observers and the simulation's step and tie
// observers are set.  Each node's viceroy feeds its own oracle; the
// simulation-global step and tie observers feed the lead (first) node's.
// The destructor detaches all three, so an arming declared after the
// viceroys and oracles it borrows never outlives them.  Arming only
// attaches: the rig still calls Sample(), the window hooks and Finish().
class OracleArming {
 public:
  struct Node {
    Viceroy* viceroy = nullptr;
    OracleSet* oracle = nullptr;
  };

  // |tap|, when set, sees every delivery on any node before its oracle does.
  OracleArming(Simulation* sim, std::vector<Node> nodes, SeededDefects defects = {},
               UpcallDispatcher::DeliveryObserver tap = {});
  ~OracleArming();

  OracleArming(const OracleArming&) = delete;
  OracleArming& operator=(const OracleArming&) = delete;

 private:
  Simulation* sim_;
  std::vector<Node> nodes_;
  UpcallDispatcher::DeliveryObserver tap_;
};

}  // namespace odyssey

#endif  // SRC_CHECK_ORACLES_H_
