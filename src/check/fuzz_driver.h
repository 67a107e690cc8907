// The per-application fuzz driver and the scenario->rig translation
// helpers, shared between the single-node runner (fuzz_runner.cc) and the
// fleet runner (src/fleet/fleet_fuzz.cc).
//
// A FuzzDriver drives one fuzzed application: registers it, executes its op
// schedule at the scheduled virtual times, and keeps upcall traffic flowing
// by re-registering a window around the delivered level.  Every decision is
// a pure function of the scenario's op fields — the driver never draws from
// the simulation's random stream — so replays are exact.

#ifndef SRC_CHECK_FUZZ_DRIVER_H_
#define SRC_CHECK_FUZZ_DRIVER_H_

#include <vector>

#include "src/check/fuzz_runner.h"
#include "src/check/fuzz_scenario.h"
#include "src/check/oracles.h"
#include "src/core/odyssey_client.h"
#include "src/net/fault_injector.h"
#include "src/servers/distillation_server.h"
#include "src/servers/file_server.h"
#include "src/servers/janus_server.h"
#include "src/servers/telemetry_server.h"
#include "src/servers/video_server.h"
#include "src/sim/simulation.h"

namespace odyssey {

// Published objects every scenario can address (variant selects among them).
inline constexpr int kFuzzFiles = 4;
inline constexpr char kFuzzFeed[] = "feed0";

// The servers behind every fuzz rig's wardens (one farm serves all nodes of
// a fleet rig), publishing the catalog the scenario's ops address.  The
// constructor draws from |sim|'s random stream.
class FuzzServerFarm {
 public:
  explicit FuzzServerFarm(Simulation* sim);

  // Installs the six wardens, one per FuzzWardenKind, over these servers.
  void InstallWardens(OdysseyClient* client);

 private:
  VideoServer video_;
  DistillationServer distillation_;
  JanusServer janus_;
  FileServer file_;
  TelemetryServer telemetry_;
};

// The scenario's fault list as an armable plan.  The injector's
// probabilistic stream is rooted in the scenario seed but decoupled from
// both the Simulation and generator streams.
FaultPlan BuildFaultPlan(const FuzzScenario& scenario);

class FuzzDriver {
 public:
  // Cap on upcall-handler re-registrations per app, so a scenario's event
  // cascade is bounded no matter how lively the estimates are.
  static constexpr int kReregisterBudget = 128;

  FuzzDriver(OdysseyClient* client, OracleSet* oracle, const FuzzApp& app, int index,
             FuzzRunResult* result)
      : client_(client), oracle_(oracle), app_(app), index_(index), result_(result) {}

  FuzzDriver(const FuzzDriver&) = delete;
  FuzzDriver& operator=(const FuzzDriver&) = delete;

  void Start();

  // After the horizon the driver goes quiet: scheduled ops and upcall
  // handlers still fire, but take no further action.
  void Stop() { stopped_ = true; }

 private:
  void Execute(const FuzzOp& op);
  void DoRequest(double lo_frac, double hi_frac);
  void DoCancel(int variant);
  void DoTsop(const FuzzOp& op);

  OdysseyClient* client_;
  OracleSet* oracle_;
  const FuzzApp& app_;
  int index_;
  FuzzRunResult* result_;
  AppId app_id_ = 0;
  bool stopped_ = false;
  bool opened_ = false;
  bool streaming_ = false;
  bool subscribed_ = false;
  int reregister_budget_ = kReregisterBudget;
  std::vector<RequestId> outstanding_;
};

}  // namespace odyssey

#endif  // SRC_CHECK_FUZZ_DRIVER_H_
