#include "src/check/fuzz_scenario.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/mobility/radio_environment.h"
#include "src/mobility/waveform_source.h"
#include "src/sim/random.h"
#include "src/strategies/strategy_registry.h"
#include "src/tracemod/replay_trace.h"

namespace odyssey {
namespace {

// Generation bounds.  Chosen so every scenario finishes in well under a
// second of wall time while still exercising contention, starvation and
// recovery: the waveform spans the calibrated experiment range (and dips to
// zero for radio shadows), and fault windows are short enough that the
// workload always gets bandwidth again before the horizon.
constexpr Duration kMinHorizon = 20 * kSecond;
constexpr Duration kMaxHorizon = 60 * kSecond;
constexpr int kMinSegments = 2;
constexpr int kMaxSegments = 6;
constexpr double kMinBandwidth = 8.0 * 1024.0;
constexpr double kMaxBandwidth = 240.0 * 1024.0;
constexpr Duration kMaxZeroSegment = 3 * kSecond;
constexpr int kMaxApps = 8;
constexpr int kMaxOpsPerApp = 6;
constexpr int kMaxFaults = 4;
constexpr Duration kMaxOutage = 3 * kSecond;
constexpr Duration kMaxSpikeExtra = 500 * kMillisecond;
constexpr Duration kMaxStallExtra = 200 * kMillisecond;

Duration UniformDuration(Rng& rng, Duration lo, Duration hi) {
  return lo + static_cast<Duration>(rng.UniformInt(static_cast<uint64_t>(hi - lo + 1)));
}

FuzzFault GenerateFault(Rng& rng, Duration horizon) {
  FuzzFault fault;
  fault.kind = static_cast<FuzzFaultKind>(rng.UniformInt(6));
  fault.start = UniformDuration(rng, 0, horizon);
  switch (fault.kind) {
    case FuzzFaultKind::kDropProbability:
      fault.p = rng.Uniform(0.01, 0.3);
      break;
    case FuzzFaultKind::kDropMessage:
      fault.index = 1 + rng.UniformInt(200);
      break;
    case FuzzFaultKind::kOutage:
      fault.duration = UniformDuration(rng, 100 * kMillisecond, kMaxOutage);
      break;
    case FuzzFaultKind::kLatencySpike:
      fault.duration = UniformDuration(rng, 100 * kMillisecond, 2 * kSecond);
      fault.extra = UniformDuration(rng, 1 * kMillisecond, kMaxSpikeExtra);
      break;
    case FuzzFaultKind::kServerStall:
      fault.duration = UniformDuration(rng, 100 * kMillisecond, 2 * kSecond);
      fault.extra = UniformDuration(rng, 1 * kMillisecond, kMaxStallExtra);
      break;
    case FuzzFaultKind::kFlowKill:
      break;
  }
  return fault;
}

// The mobility dimension's waveform draw: a model, a coverage layout and a
// sampling of the pipeline, all parameterized from the generator stream.
// ensure_live_tail keeps the documented drain guarantee (the final segment
// has positive bandwidth); everything else — shadow length, flap rate — is
// whatever the motion produces, which is exactly the point.
void GenerateMobilitySegments(Rng& rng, Duration horizon,
                              std::vector<FuzzSegment>* segments) {
  MobilityScenarioSpec spec;
  spec.model = static_cast<MobilityModelKind>(rng.UniformInt(kMobilityModelKinds));
  spec.layout = static_cast<BaseStationLayout>(rng.UniformInt(kBaseStationLayouts));
  spec.arena.width_m = rng.Uniform(400.0, 1500.0);
  spec.arena.height_m = rng.Uniform(400.0, 1500.0);
  spec.speed_scale = rng.Uniform(0.5, 4.0);
  spec.memory = rng.Uniform(0.2, 0.95);
  spec.duration = horizon;
  spec.sample_period = UniformDuration(rng, 250 * kMillisecond, kSecond);
  spec.ensure_live_tail = true;
  const uint64_t waveform_seed = rng.NextU64();
  const ReplayTrace waveform = MakeMobilityWaveform(spec, waveform_seed);
  for (const TraceSegment& segment : waveform.segments()) {
    segments->push_back(FuzzSegment{segment.duration, segment.bandwidth_bps, segment.latency});
  }
}

}  // namespace

const char* FuzzWardenName(FuzzWardenKind kind) {
  switch (kind) {
    case FuzzWardenKind::kVideo:
      return "video";
    case FuzzWardenKind::kWeb:
      return "web";
    case FuzzWardenKind::kSpeech:
      return "speech";
    case FuzzWardenKind::kBitstream:
      return "bitstream";
    case FuzzWardenKind::kFile:
      return "files";
    case FuzzWardenKind::kTelemetry:
      return "telemetry";
  }
  return "unknown";
}

const char* FuzzFaultName(FuzzFaultKind kind) {
  switch (kind) {
    case FuzzFaultKind::kDropProbability:
      return "drop_probability";
    case FuzzFaultKind::kDropMessage:
      return "drop_message";
    case FuzzFaultKind::kOutage:
      return "outage";
    case FuzzFaultKind::kLatencySpike:
      return "latency_spike";
    case FuzzFaultKind::kServerStall:
      return "server_stall";
    case FuzzFaultKind::kFlowKill:
      return "flow_kill";
  }
  return "unknown";
}

size_t FuzzScenario::ElementCount() const {
  size_t count = segments.size() + apps.size() + faults.size();
  for (const FuzzApp& app : apps) {
    count += app.ops.size();
  }
  return count;
}

std::string FuzzScenario::Describe() const {
  std::ostringstream out;
  out << "scenario seed=" << seed << " horizon=" << DurationToSeconds(horizon)
      << "s elements=" << ElementCount() << "\n";
  if (fleet_nodes >= 2) {
    out << "  fleet nodes=" << fleet_nodes << " servers=" << fleet_servers << "\n";
  }
  if (!strategy.empty()) {
    out << "  strategy " << strategy << "\n";
  }
  for (const FuzzSegment& segment : segments) {
    out << "  segment " << DurationToSeconds(segment.duration) << "s "
        << segment.bandwidth_bps / 1024.0 << " KB/s latency "
        << DurationToMillis(segment.latency) << "ms\n";
  }
  for (size_t i = 0; i < apps.size(); ++i) {
    const FuzzApp& app = apps[i];
    out << "  app" << i << " warden=" << FuzzWardenName(app.warden)
        << " start=" << DurationToSeconds(app.start) << "s ops=" << app.ops.size() << "\n";
    for (const FuzzOp& op : app.ops) {
      out << "    t=" << DurationToSeconds(op.at) << "s ";
      switch (op.kind) {
        case FuzzOpKind::kRequest:
          out << "request window [" << op.window_lo_frac << ", " << op.window_hi_frac
              << "] x level";
          break;
        case FuzzOpKind::kCancel:
          out << "cancel #" << op.variant;
          break;
        case FuzzOpKind::kTsop:
          out << "tsop variant=" << op.variant << " magnitude=" << op.magnitude;
          break;
      }
      out << "\n";
    }
  }
  for (const FuzzFault& fault : faults) {
    out << "  fault " << FuzzFaultName(fault.kind) << " start="
        << DurationToSeconds(fault.start) << "s duration="
        << DurationToSeconds(fault.duration) << "s extra=" << DurationToMillis(fault.extra)
        << "ms p=" << fault.p << " index=" << fault.index << "\n";
  }
  return out.str();
}

FuzzScenario GenerateScenario(uint64_t seed) { return GenerateScenario(seed, ScenarioOptions{}); }

FuzzScenario GenerateScenario(uint64_t seed, const ScenarioOptions& options) {
  // The generator stream is independent of the Simulation stream (which is
  // also rooted at scenario.seed): mixing once keeps the two decoupled.
  Rng rng(SplitMix64(seed ^ 0x6f647966757a7aULL).Next());

  FuzzScenario scenario;
  scenario.seed = seed;
  scenario.horizon = UniformDuration(rng, kMinHorizon, kMaxHorizon);

  // Mobility dimension: gated behind its own flag draw so that with the
  // option off, the stream below is bit-identical to the historical
  // generator.  With it on, about half the scenarios take a
  // motion-generated waveform instead of the hand-rolled segment draw.
  const bool mobility_waveform = options.mobility && rng.NextDouble() < 0.5;
  if (mobility_waveform) {
    GenerateMobilitySegments(rng, scenario.horizon, &scenario.segments);
  } else {
    const int segment_count =
        kMinSegments + static_cast<int>(rng.UniformInt(kMaxSegments - kMinSegments + 1));
    for (int i = 0; i < segment_count; ++i) {
      FuzzSegment segment;
      const bool last = i + 1 == segment_count;
      // Radio shadows: an occasional zero-bandwidth segment, never last (the
      // final segment persists forever, and a dead tail would strand every
      // in-flight transfer until the horizon).
      const bool shadow = !last && rng.NextDouble() < 0.2;
      if (shadow) {
        segment.duration = UniformDuration(rng, 200 * kMillisecond, kMaxZeroSegment);
        segment.bandwidth_bps = 0.0;
      } else {
        segment.duration = UniformDuration(rng, 2 * kSecond, 15 * kSecond);
        segment.bandwidth_bps = rng.Uniform(kMinBandwidth, kMaxBandwidth);
      }
      segment.latency = UniformDuration(rng, 1 * kMillisecond, 50 * kMillisecond);
      scenario.segments.push_back(segment);
    }
  }

  // Large-N mode (max_apps above the default): log-uniform in [1, max_apps]
  // biases toward moderate sizes while still reaching the configured scale
  // regularly.  The default takes the original uniform draw verbatim, so
  // historical seeds keep producing byte-identical scenarios.
  int app_count;
  if (options.max_apps <= kMaxApps) {
    app_count = 1 + static_cast<int>(rng.UniformInt(kMaxApps));
  } else {
    const double u = rng.NextDouble();
    const double raw = std::exp(u * std::log(static_cast<double>(options.max_apps) + 1.0));
    app_count = std::clamp(static_cast<int>(raw), 1, options.max_apps);
  }
  for (int i = 0; i < app_count; ++i) {
    FuzzApp app;
    // Cycle through the wardens so every scenario with >= 6 apps covers all
    // six data types; the offset randomizes which types small scenarios get.
    const auto offset = static_cast<int>(rng.UniformInt(kFuzzWardenKinds));
    app.warden = static_cast<FuzzWardenKind>((i + offset) % kFuzzWardenKinds);
    app.start = UniformDuration(rng, 0, scenario.horizon / 4);
    const int op_count = static_cast<int>(rng.UniformInt(kMaxOpsPerApp + 1));
    for (int j = 0; j < op_count; ++j) {
      FuzzOp op;
      op.at = UniformDuration(rng, app.start + kSecond, scenario.horizon);
      const double kind_draw = rng.NextDouble();
      if (kind_draw < 0.35) {
        op.kind = FuzzOpKind::kRequest;
      } else if (kind_draw < 0.5) {
        op.kind = FuzzOpKind::kCancel;
      } else {
        op.kind = FuzzOpKind::kTsop;
      }
      op.window_lo_frac = rng.Uniform(0.3, 0.9);
      op.window_hi_frac = op.window_lo_frac * rng.Uniform(1.2, 3.0);
      op.variant = static_cast<int>(rng.UniformInt(8));
      op.magnitude = rng.NextDouble();
      app.ops.push_back(op);
    }
    std::sort(app.ops.begin(), app.ops.end(),
              [](const FuzzOp& a, const FuzzOp& b) { return a.at < b.at; });
    scenario.apps.push_back(std::move(app));
  }

  const int fault_count = static_cast<int>(rng.UniformInt(kMaxFaults + 1));
  for (int i = 0; i < fault_count; ++i) {
    scenario.faults.push_back(GenerateFault(rng, scenario.horizon));
  }

  // Fleet dimension: drawn last, after every historical draw, so with the
  // option off the stream above is bit-identical to the historical
  // generator.  With it on, about half the scenarios run multi-node.
  const bool fleet_dimension = options.fleet && rng.NextDouble() < 0.5;
  if (fleet_dimension) {
    scenario.fleet_nodes = 2 + static_cast<int>(rng.UniformInt(7));
    scenario.fleet_servers = 1 + static_cast<int>(rng.UniformInt(2));
  }

  // Strategy dimension: drawn after everything else (same append-only
  // pattern as fleet), uniform over the builtin registry in registration
  // order, so the chosen name is a pure function of the seed.
  if (options.strategies) {
    const std::vector<std::string> names = StrategyRegistry::Builtin().Names();
    scenario.strategy = names[rng.UniformInt(names.size())];
  }

  return scenario;
}

ReplayTrace BuildTrace(const FuzzScenario& scenario) {
  ReplayTrace trace;
  for (const FuzzSegment& segment : scenario.segments) {
    trace.Append(segment.duration, segment.bandwidth_bps, segment.latency);
  }
  return trace;
}

double IntegrateCapacityBytes(const FuzzScenario& scenario, Time until) {
  // One audited integration path: ReplayTrace::IntegralBytes over the
  // scenario's own trace.
  return BuildTrace(scenario).IntegralBytes(until);
}

}  // namespace odyssey
