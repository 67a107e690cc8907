#include "src/check/fuzz_runner.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/check/fuzz_driver.h"
#include "src/core/odyssey_client.h"
#include "src/metrics/experiment.h"
#include "src/net/fault_injector.h"
#include "src/net/modulator.h"
#include "src/strategies/centralized.h"
#include "src/strategies/strategy_registry.h"

namespace odyssey {
namespace {

// Self-rescheduling periodic oracle audit; optionally records the
// availability figures the differential tests compare.
struct Sampler {
  Simulation* sim = nullptr;
  OracleSet* oracle = nullptr;
  // The audit surface, when the installed strategy exposes one; null for
  // isolated-estimate strategies (laissez-faire, blind-optimism).
  CentralizedStrategy* strategy = nullptr;
  // Always set: the strategy actually installed in the viceroy.
  BandwidthStrategy* base = nullptr;
  size_t app_count = 0;
  DifferentialLog* differential = nullptr;
  Time end = 0;
  Duration period = 0;

  void Tick() {
    oracle->Sample();
    if (differential != nullptr) {
      const Time now = sim->now();
      differential->samples.push_back(static_cast<double>(now));
      if (strategy != nullptr) {
        differential->samples.push_back(strategy->TotalSupply(now));
        differential->samples.push_back(
            static_cast<double>(strategy->supply_model().ActiveConnectionCount(now)));
        for (const ConnectionId connection : strategy->AttachedConnections()) {
          differential->samples.push_back(strategy->ConnectionAvailability(connection, now));
        }
      } else {
        // No per-connection surface; sample the per-app figures the viceroy
        // itself consults (apps register 1..N in driver order).
        differential->samples.push_back(base->TotalSupply(now));
        differential->samples.push_back(base->HasEstimate() ? 1.0 : 0.0);
        for (size_t i = 1; i <= app_count; ++i) {
          differential->samples.push_back(base->AvailabilityFor(static_cast<AppId>(i), now));
        }
      }
    }
    if (sim->now() < end) {
      sim->Schedule(period, [this] { Tick(); });
    }
  }
};

}  // namespace

FuzzRunResult RunFuzzScenario(const FuzzScenario& scenario, const FuzzRunOptions& options) {
  FuzzRunResult result;

  Simulation sim(scenario.seed);
  if (options.trace != nullptr) {
    sim.set_trace(options.trace);
  }
  const FuzzSegment first =
      scenario.segments.empty() ? FuzzSegment{kSecond, kHighBandwidth, kOneWayLatency}
                                : scenario.segments.front();
  Link link(&sim, first.bandwidth_bps, first.latency);
  Modulator modulator(&sim, &link);
  FaultInjector injector(&sim, &link);

  FuzzServerFarm servers(&sim);

  // The strategy comes from the registry so the fuzz dimension and the
  // conformance kit cover exactly what production scenarios can select.
  // The reference stack pairs the scenario's strategy with the naive
  // supply model and the full-scan viceroy.
  const std::string strategy_name = scenario.strategy.empty() ? "odyssey" : scenario.strategy;
  StrategyContext context;
  context.sim = &sim;
  context.modulator = &modulator;
  context.supply_kind =
      options.reference_stack ? SupplyModelKind::kNaive : SupplyModelKind::kIncremental;
  std::unique_ptr<BandwidthStrategy> strategy =
      StrategyRegistry::Builtin().Create(strategy_name, std::move(context));
  CentralizedStrategy* strategy_ptr = strategy->audit_surface();
  BandwidthStrategy* strategy_base = strategy.get();
  OdysseyClient client(&sim, &link, std::move(strategy), kUpcallLatency);
  if (options.reference_stack) {
    client.viceroy().set_reevaluate_mode(ReevaluateMode::kFullScan);
  }
  servers.InstallWardens(&client);
  client.set_retry_policy(RetryPolicy::Default());
  client.set_fault_injector(&injector);
  injector.Arm(BuildFaultPlan(scenario));

  OracleSet oracle(scenario, &sim, &client.viceroy(), strategy_ptr, &link);
  oracle.set_max_audited_connections(options.max_audited_connections);
  const OracleArming arming(
      &sim, {{&client.viceroy(), &oracle}},
      SeededDefects{options.selftest_mutation, options.selftest_tiebreak},
      [&result, &options, &sim](AppId app, uint64_t seq, RequestId request, ResourceId resource,
                                double level, Time posted_at) {
        ++result.upcalls_delivered;
        if (options.differential != nullptr) {
          options.differential->upcalls.push_back(
              UpcallRecord{app, seq, request, resource, level, posted_at, sim.now()});
        }
      });

  const Time end = scenario.horizon + options.drain_grace;
  Sampler sampler{&sim,           &oracle, strategy_ptr,         strategy_base,
                  scenario.apps.size(),    options.differential, end,
                  options.oracle_period};
  // The sampler stops rescheduling at |end| and the sim drains before it
  // leaves scope.
  sim.Schedule(options.oracle_period, [&sampler] { sampler.Tick(); });  // ody_lint: owned-capture

  std::vector<std::unique_ptr<FuzzDriver>> drivers;
  drivers.reserve(scenario.apps.size());
  for (size_t i = 0; i < scenario.apps.size(); ++i) {
    drivers.push_back(std::make_unique<FuzzDriver>(&client, &oracle, scenario.apps[i],
                                                   static_cast<int>(i), &result));
    drivers.back()->Start();
  }

  modulator.Replay(BuildTrace(scenario));
  sim.RunUntil(scenario.horizon);
  for (auto& driver : drivers) {
    driver->Stop();
  }
  sim.RunUntil(end);
  oracle.Finish();

  result.violations = oracle.violations();
  result.violation_count = oracle.violation_count();
  result.tie_pairs_audited = oracle.tie_pairs_audited();
  result.bytes_delivered = link.bytes_delivered();
  return result;
}

}  // namespace odyssey
