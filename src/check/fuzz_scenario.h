// Scenario synthesis for the deterministic simulation fuzzer (ody_fuzz).
//
// A FuzzScenario is a small, declarative description of one randomized but
// schedulable workload: a piecewise-constant link waveform, a handful of
// concurrent applications spread across all six wardens with randomized
// request/cancel/tsop interleavings, and a fault schedule drawn from the
// fault-injection vocabulary.  Everything downstream — execution
// (fuzz_runner), oracle checking (oracles) and minimization (shrink) — is a
// pure function of this description, which is itself a pure function of a
// single 64-bit seed.  That is what makes a fuzz failure replayable from one
// integer and shrinkable by editing the description rather than the trace.

#ifndef SRC_CHECK_FUZZ_SCENARIO_H_
#define SRC_CHECK_FUZZ_SCENARIO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/time.h"
#include "src/tracemod/replay_trace.h"

namespace odyssey {

// The six data types a fuzzed application can exercise.
enum class FuzzWardenKind : int {
  kVideo = 0,
  kWeb = 1,
  kSpeech = 2,
  kBitstream = 3,
  kFile = 4,
  kTelemetry = 5,
};

inline constexpr int kFuzzWardenKinds = 6;

const char* FuzzWardenName(FuzzWardenKind kind);

// One piecewise-constant segment of the link waveform (mirrors
// TraceSegment, duplicated here so a scenario is self-contained and
// trivially serializable in a repro snippet).
struct FuzzSegment {
  Duration duration = 0;
  double bandwidth_bps = 0.0;
  Duration latency = 0;
};

// What a scheduled application action does.
enum class FuzzOpKind : int {
  kRequest = 0,  // register a window of tolerance around the current level
  kCancel = 1,   // cancel one outstanding registration
  kTsop = 2,     // a warden-specific type-specific operation
};

// One scheduled action of one application.  |variant| and |magnitude|
// parameterize the action per warden (opcode choice, levels, sizes); the
// driver derives every concrete argument from these two fields alone, never
// from the simulation's random stream, so replaying a scenario is exact.
struct FuzzOp {
  Time at = 0;
  FuzzOpKind kind = FuzzOpKind::kRequest;
  double window_lo_frac = 0.5;  // kRequest: lower bound as a fraction of level
  double window_hi_frac = 1.5;  // kRequest: upper bound as a fraction of level
  int variant = 0;
  double magnitude = 0.0;  // in [0, 1)
};

struct FuzzApp {
  FuzzWardenKind warden = FuzzWardenKind::kBitstream;
  Time start = 0;
  std::vector<FuzzOp> ops;
};

// One fault from the FaultPlan vocabulary (src/net/fault_injector.h).
enum class FuzzFaultKind : int {
  kDropProbability = 0,
  kDropMessage = 1,
  kOutage = 2,
  kLatencySpike = 3,
  kServerStall = 4,
  kFlowKill = 5,
};

const char* FuzzFaultName(FuzzFaultKind kind);

struct FuzzFault {
  FuzzFaultKind kind = FuzzFaultKind::kOutage;
  Time start = 0;
  Duration duration = 0;
  Duration extra = 0;    // spike latency / stall compute
  double p = 0.0;        // drop probability
  uint64_t index = 0;    // deterministic drop: global message ordinal
};

struct FuzzScenario {
  uint64_t seed = 1;
  Duration horizon = 0;
  std::vector<FuzzSegment> segments;
  std::vector<FuzzApp> apps;
  std::vector<FuzzFault> faults;

  // Fleet dimension (ScenarioOptions::fleet): when >= 2, the scenario runs
  // on the multi-node rig (src/fleet) with this many client nodes sharing
  // |fleet_servers| server groups.  0 selects the classic single-node rig.
  int fleet_nodes = 0;
  int fleet_servers = 0;

  // Strategy dimension (ScenarioOptions::strategies): the registry name of
  // the bandwidth strategy the rig installs.  Empty means the seed default
  // ("odyssey"), keeping historical repro snippets valid.
  std::string strategy;

  // Number of shrinkable elements: segments + apps + ops + faults.  The
  // shrinker minimizes this count; "minimal reproducer" is measured in it.
  size_t ElementCount() const;

  // Human-readable multi-line description (for failure reports).
  std::string Describe() const;
};

// Knobs for scenario synthesis beyond the seed.  Defaults reproduce the
// historical generator exactly (same seed -> byte-identical scenario).
struct ScenarioOptions {
  // Upper bound on the number of concurrent applications.  At the default
  // the app count is drawn uniformly in [1, 8], matching the original
  // generator draw for draw; above it the count is drawn log-uniform in
  // [1, max_apps], so large-N sweeps still spend most runs at moderate
  // sizes while regularly reaching the configured scale.
  int max_apps = 8;

  // Mobility dimension: when true, roughly half the scenarios derive their
  // link waveform from the motion -> signal -> bandwidth pipeline
  // (src/mobility) instead of the hand-rolled 2-6-segment draw, covering
  // shapes that draw never produces — long zero-bandwidth shadows and
  // rapid cell-edge tier flapping.  The generated waveform is materialized
  // into |segments|, so the oracles (including byte conservation via
  // IntegrateCapacityBytes) and the shrinker operate on it unchanged, and
  // the drain guarantee below still holds (the pipeline forces a live
  // final segment).  At the default false the generator stream is
  // untouched: historical seeds keep producing byte-identical scenarios.
  bool mobility = false;

  // Fleet dimension: when true, roughly half the scenarios run on the
  // multi-node rig — 2-8 client nodes (each a full viceroy + warden stack
  // behind its own scaled waveform) sharing 1-2 server groups through the
  // cross-node estimate aggregation protocol.  Like |mobility|, the extra
  // draws happen after every historical draw, so at the default false the
  // generator stream is untouched and scenarios stay byte-identical.
  bool fleet = false;

  // Strategy dimension: when true, every scenario draws its bandwidth
  // strategy uniformly from the builtin StrategyRegistry, so the full
  // oracle set sweeps the whole zoo.  Drawn after every other dimension
  // (the documented append-only pattern), so at the default false the
  // stream is untouched and scenarios stay byte-identical.
  bool strategies = false;
};

// Synthesizes a schedulable scenario from |seed| alone.  Guarantees: at
// least one segment, the final segment has positive bandwidth (so flows in
// flight at the end of the waveform can drain), all op times lie within the
// horizon, and fault windows are bounded so the workload cannot be starved
// for more than a few seconds at a time.
FuzzScenario GenerateScenario(uint64_t seed);
FuzzScenario GenerateScenario(uint64_t seed, const ScenarioOptions& options);

// The scenario's waveform as a replayable modulator trace: the one
// FuzzScenario -> ReplayTrace conversion.
ReplayTrace BuildTrace(const FuzzScenario& scenario);

// Upper bound on bytes the link can deliver by |until|: the integral of the
// nominal waveform (the final segment persists past the end of the trace,
// matching Modulator semantics).  Faults only reduce delivery, so this
// bound holds for every fault schedule; the byte-conservation oracle checks
// the link never exceeds it.
double IntegrateCapacityBytes(const FuzzScenario& scenario, Time until);

}  // namespace odyssey

#endif  // SRC_CHECK_FUZZ_SCENARIO_H_
