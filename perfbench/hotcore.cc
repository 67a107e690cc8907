// The hot-core workloads: one viceroy serving many one-connection apps,
// each holding a re-registering window of tolerance, with every fuzzing
// oracle armed.  The rig follows tier_scale's scale_core schedule (stepped
// supply over 64 hot connections fed every 50 ms, eight two-connection
// apps, a 256-app cancel sweep every 500 ms, [0.7x, 1.3x] windows, oracles
// audited through a 2048-connection cap), rebuilt here from public API so
// the benchmark can bracket each call into the library with a span.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/span_tracer.h"
#include "perfbench/workloads.h"
#include "src/check/fuzz_scenario.h"
#include "src/check/oracles.h"
#include "src/core/bandwidth_strategy.h"
#include "src/core/resource.h"
#include "src/core/viceroy.h"
#include "src/metrics/experiment.h"
#include "src/net/link.h"
#include "src/rpc/endpoint.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"
#include "src/strategies/centralized.h"

namespace perfbench {

using odyssey::AppId;
using odyssey::ArbitrationStrategy;
using odyssey::BandwidthStrategy;
using odyssey::CentralizedStrategy;
using odyssey::ConnectionId;
using odyssey::Duration;
using odyssey::Endpoint;
using odyssey::kMillisecond;
using odyssey::kSecond;
using odyssey::RequestId;
using odyssey::ResourceId;
using odyssey::Time;

namespace {

// Forwards every BandwidthStrategy virtual to the wrapped strategy and
// brackets the two the viceroy's hot path calls (AvailabilityFor and
// TakeReevalHint) with spans.  The viceroy installs its change callback on
// the decorator, so the decorator relays the inner strategy's
// notifications; the oracles audit the inner strategy directly.
class TimedStrategy final : public BandwidthStrategy {
 public:
  explicit TimedStrategy(std::unique_ptr<BandwidthStrategy> inner) : inner_(std::move(inner)) {
    inner_->SetChangeCallback([this] { NotifyChanged(); });
  }
  TimedStrategy(const TimedStrategy&) = delete;
  TimedStrategy& operator=(const TimedStrategy&) = delete;

  void set_tracer(SpanTracer* tracer) { tracer_ = tracer; }

  std::string name() const override { return inner_->name(); }
  void AttachConnection(AppId app, Endpoint* endpoint) override {
    inner_->AttachConnection(app, endpoint);
  }
  void DetachConnection(Endpoint* endpoint) override { inner_->DetachConnection(endpoint); }
  double AvailabilityFor(AppId app, Time now) const override {
    Span span(tracer_, SpanKind::kAvailability);
    return inner_->AvailabilityFor(app, now);
  }
  bool HasEstimate() const override { return inner_->HasEstimate(); }
  double TotalSupply(Time now) const override { return inner_->TotalSupply(now); }
  Duration SmoothedRttFor(AppId app) const override { return inner_->SmoothedRttFor(app); }
  int ConnectionCountFor(AppId app) const override { return inner_->ConnectionCountFor(app); }
  AppId OwnerOf(ConnectionId connection) const override { return inner_->OwnerOf(connection); }
  odyssey::ReevalHint TakeReevalHint(Time now) override {
    Span span(tracer_, SpanKind::kHint);
    return inner_->TakeReevalHint(now);
  }
  ArbitrationStrategy* arbitration() override { return inner_->arbitration(); }
  CentralizedStrategy* audit_surface() override { return inner_->audit_surface(); }

 private:
  std::unique_ptr<BandwidthStrategy> inner_;
  SpanTracer* tracer_ = nullptr;
};

// tier_scale's stepped waveform (KB/s per hot connection); each level holds
// a quarter of the horizon and every step leaves nearly every window.
constexpr double kStormKbps[] = {60.0, 200.0, 30.0, 120.0};
// hotcore_steady's constant level.
constexpr double kSteadyKbps = 120.0;

constexpr Duration kCancelSweepPeriod = 500 * kMillisecond;
constexpr Duration kOraclePeriod = 100 * kMillisecond;
constexpr Duration kDrainGrace = 2 * kSecond;
constexpr Duration kFeedPeriod = 50 * kMillisecond;
constexpr int kMultiConnectionApps = 8;
constexpr int kHotConnections = 64;
constexpr int kCancelSweep = 256;
constexpr size_t kMaxAuditedConnections = 2048;

struct HotcoreParams {
  int apps = 0;
  Duration horizon = 0;
  // Virtual time run inside set-up (the opening estimate convergence).
  Duration warmup = 0;
  std::vector<double> wave_kbps;  // equal-length levels over the horizon
};

HotcoreParams ParamsFor(HotcoreShape shape) {
  HotcoreParams params;
  if (shape == HotcoreShape::kStorm) {
    params.apps = 100000;
    params.horizon = 10 * kSecond;
    params.wave_kbps.assign(std::begin(kStormKbps), std::end(kStormKbps));
  } else {
    params.apps = 10000;
    params.horizon = 60 * kSecond;
    params.warmup = 2 * kSecond;
    params.wave_kbps = {kSteadyKbps};
  }
  return params;
}

// The scenario the oracles audit against: its segments mirror the
// waveform, so the byte-conservation bound is the true capacity integral.
odyssey::FuzzScenario OracleScenario(const HotcoreParams& params, uint64_t seed) {
  odyssey::FuzzScenario scenario;
  scenario.seed = seed;
  scenario.horizon = params.horizon;
  const Duration step = params.horizon / static_cast<Duration>(params.wave_kbps.size());
  for (const double kbps : params.wave_kbps) {
    odyssey::FuzzSegment segment;
    segment.duration = step;
    segment.bandwidth_bps = kbps * 1024.0 * kHotConnections;
    segment.latency = 10 * kMillisecond;
    scenario.segments.push_back(segment);
  }
  return scenario;
}

// Percentile of per-call span durations, in microseconds.
double PercentileUs(const std::vector<uint32_t>& durations_ns, double q) {
  return Percentile(std::vector<double>(durations_ns.begin(), durations_ns.end()), q) * 1e-3;
}

class HotcoreRig {
 public:
  HotcoreRig(HotcoreParams params, uint64_t seed, bool decorated)
      : params_(std::move(params)),
        scenario_(OracleScenario(params_, seed)),
        sim_(seed),
        link_(&sim_, scenario_.segments.front().bandwidth_bps, 10 * kMillisecond),
        viceroy_(&sim_, MakeStrategy(&sim_, decorated), odyssey::kUpcallLatency) {
    timed_ = decorated ? static_cast<TimedStrategy*>(&viceroy_.strategy()) : nullptr;
    central_ = viceroy_.strategy().audit_surface();
    oracle_ = std::make_unique<odyssey::OracleSet>(scenario_, &sim_, &viceroy_, central_, &link_);
    oracle_->set_max_audited_connections(kMaxAuditedConnections);
  }

  // Builds apps, connections and initial windows, arms the oracles and the
  // periodic drivers, and runs the warm-up.  Returns the warm-up seconds.
  double SetUp() {
    Build();
    viceroy_.upcalls().set_delivery_observer(
        [this](AppId app, uint64_t seq, RequestId request, ResourceId resource, double level,
               Time posted_at) {
          uint64_t level_bits = 0;
          std::memcpy(&level_bits, &level, sizeof(level_bits));
          fingerprint_.Add(app);
          fingerprint_.Add(seq);
          fingerprint_.Add(request);
          fingerprint_.Add(level_bits);
          delivering_app_ = app;
          delivering_seq_ = seq;
          Span span(tracer_, SpanKind::kOracle);
          oracle_->OnUpcallDelivered(app, seq, request, resource, level, posted_at);
        });
    sim_.set_step_observer([this](Time when) {
      if (timing_) {
        CloseUnit();
      }
      Span span(tracer_, SpanKind::kOracle);
      oracle_->OnStep(when);
    });
    sim_.set_tie_observer([this](Time when, uint64_t prev_seq, uint64_t seq) {
      Span span(tracer_, SpanKind::kOracle);
      oracle_->OnTieBreak(when, prev_seq, seq);
    });
    sim_.Post(kFeedPeriod, [this] { Feed(); });
    sim_.Post(kOraclePeriod, [this] { SampleOracle(); });
    sim_.Post(kCancelSweepPeriod, [this] { CancelSweep(); });
    const auto start = std::chrono::steady_clock::now();
    if (params_.warmup > 0) {
      sim_.RunUntil(params_.warmup);
    }
    return SecondsSince(start);
  }

  // The timed phase: the rest of the horizon, the drain grace, and the
  // oracles' end-of-run audit.
  void Run(SpanTracer* tracer) {
    tracer_ = tracer;
    if (timed_ != nullptr) {
      timed_->set_tracer(tracer);
    }
    base_ = Counters();
    requests_ok_ = 0;
    timing_ = true;
    unit_start_ns_ = NowNs();
    {
      Span span(tracer_, SpanKind::kRun);
      sim_.RunUntil(params_.horizon + kDrainGrace);
    }
    CloseUnit();
    timing_ = false;
    sim_.set_step_observer({});
    sim_.set_tie_observer({});
    viceroy_.upcalls().set_delivery_observer({});
    {
      Span span(tracer_, SpanKind::kOracle);
      oracle_->Finish();
    }
    CloseUnit();
    if (timed_ != nullptr) {
      timed_->set_tracer(nullptr);
    }
    tracer_ = nullptr;
  }

  // Wall seconds of each simulation event of the timed phase (the step
  // observer marks the boundaries), then of the end-of-run audit.
  const std::vector<double>& unit_s() const { return unit_s_; }

  uint64_t OutputFingerprint() const {
    Fingerprint fingerprint = fingerprint_;
    fingerprint.Add(sim_.events_processed());
    fingerprint.Add(windows_registered_);
    return fingerprint.value();
  }

  uint64_t scan_ops() const { return central_->supply_model().scan_ops(); }
  uint64_t upcalls() { return viceroy_.upcalls().delivered_count(); }
  uint64_t windows_registered() const { return windows_registered_; }
  uint64_t violations() const { return oracle_->violation_count(); }

  // Per-layer metrics of the timed phase from |tracer|'s spans and the
  // library's own counters.
  std::vector<Metric> LayerMetrics(const SpanTracer& tracer, double warmup_s) {
    const Snapshot now = Counters();
    const auto s = [](uint64_t ns) { return static_cast<double>(ns) * 1e-9; };
    const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
    const SpanTotals& run = tracer.totals(SpanKind::kRun);
    const SpanTotals& observe = tracer.totals(SpanKind::kObserve);
    const SpanTotals& availability = tracer.totals(SpanKind::kAvailability);
    const SpanTotals& hint = tracer.totals(SpanKind::kHint);
    const SpanTotals& request = tracer.totals(SpanKind::kRequest);
    const SpanTotals& cancel = tracer.totals(SpanKind::kCancel);
    const SpanTotals& handler = tracer.totals(SpanKind::kHandler);
    const SpanTotals& oracle = tracer.totals(SpanKind::kOracle);
    const double upcalls = static_cast<double>(now.upcalls - base_.upcalls);
    const double scan_ops = static_cast<double>(now.scan_ops - base_.scan_ops);
    const double latency_us = static_cast<double>(now.latency_total_us - base_.latency_total_us);
    return {
        {"sim.events", static_cast<double>(now.events - base_.events)},
        {"sim.self_s", s(run.self_ns)},
        {"estimator.scan_ops", scan_ops},
        {"estimator.observations", static_cast<double>(observe.count)},
        {"estimator.scan_ops_per_obs", ratio(scan_ops, static_cast<double>(observe.count))},
        {"strategies.availability_calls", static_cast<double>(availability.count)},
        {"strategies.availability_s", s(availability.total_ns)},
        {"strategies.availability_per_upcall",
         ratio(static_cast<double>(availability.count), upcalls)},
        {"strategies.hint_calls", static_cast<double>(hint.count)},
        {"strategies.hint_s", s(hint.total_ns)},
        {"viceroy.observe_calls", static_cast<double>(observe.count)},
        {"viceroy.observe_s", s(observe.total_ns)},
        {"viceroy.observe_us_p50", PercentileUs(tracer.durations(SpanKind::kObserve), 0.50)},
        {"viceroy.observe_us_p99", PercentileUs(tracer.durations(SpanKind::kObserve), 0.99)},
        {"viceroy.reevaluate_self_s",
         s(observe.total_ns - tracer.child_ns(SpanKind::kObserve, SpanKind::kAvailability) -
           tracer.child_ns(SpanKind::kObserve, SpanKind::kHint))},
        {"viceroy.request_calls", static_cast<double>(request.count)},
        {"viceroy.request_ok", static_cast<double>(requests_ok_)},
        {"viceroy.request_s", s(request.total_ns)},
        {"viceroy.request_us_p50", PercentileUs(tracer.durations(SpanKind::kRequest), 0.50)},
        {"viceroy.request_us_p99", PercentileUs(tracer.durations(SpanKind::kRequest), 0.99)},
        {"viceroy.request_ok_ratio",
         ratio(static_cast<double>(requests_ok_), static_cast<double>(request.count))},
        {"viceroy.cancel_calls", static_cast<double>(cancel.count)},
        {"viceroy.cancel_s", s(cancel.total_ns)},
        {"request_table.size_max", static_cast<double>(table_size_max_)},
        {"upcall.delivered", upcalls},
        {"upcall.handler_s", s(handler.total_ns)},
        {"upcall.latency_mean_ms", ratio(latency_us, upcalls) / 1000.0},
        {"core.clients", static_cast<double>(params_.apps)},
        {"check.oracle_calls", static_cast<double>(oracle.count)},
        {"check.oracle_s", s(oracle.total_ns)},
        {"check.violations", static_cast<double>(oracle_->violation_count())},
        {"hotcore.warmup_s", warmup_s},
    };
  }

 private:
  struct AppState {
    AppId id = 0;
    RequestId request = 0;  // current registration; 0 = none
  };

  struct Snapshot {
    uint64_t events = 0;
    uint64_t upcalls = 0;
    uint64_t scan_ops = 0;
    uint64_t latency_total_us = 0;
  };

  static std::unique_ptr<BandwidthStrategy> MakeStrategy(odyssey::Simulation* sim,
                                                         bool decorated) {
    auto central = std::make_unique<CentralizedStrategy>(sim);
    if (!decorated) {
      return central;
    }
    return std::make_unique<TimedStrategy>(std::move(central));
  }

  void CloseUnit() {
    const uint64_t now = NowNs();
    unit_s_.push_back(static_cast<double>(now - unit_start_ns_) * 1e-9);
    unit_start_ns_ = now;
  }

  Snapshot Counters() {
    return Snapshot{sim_.events_processed(), viceroy_.upcalls().delivered_count(),
                    central_->supply_model().scan_ops(),
                    static_cast<uint64_t>(viceroy_.upcalls().latency_total())};
  }

  void Build() {
    odyssey::Rng rng(sim_.rng().NextU64());
    apps_.reserve(static_cast<size_t>(params_.apps));
    endpoints_.reserve(static_cast<size_t>(params_.apps));
    for (int i = 0; i < params_.apps; ++i) {
      AppState app;
      app.id = viceroy_.RegisterApplication("app" + std::to_string(i));
      endpoints_.push_back(std::make_unique<Endpoint>(&sim_, &link_, "server"));
      viceroy_.AttachConnection(app.id, endpoints_.back().get());
      apps_.push_back(app);
    }
    for (int i = 0; i < std::min(kMultiConnectionApps, params_.apps); ++i) {
      extra_endpoints_.push_back(std::make_unique<Endpoint>(&sim_, &link_, "server2"));
      viceroy_.AttachConnection(apps_[static_cast<size_t>(i)].id, extra_endpoints_.back().get());
    }
    const int hot = std::min(kHotConnections, params_.apps);
    for (int i = 0; i < hot; ++i) {
      weights_.push_back(rng.Uniform(0.5, 1.5));
    }
    for (AppState& app : apps_) {
      RegisterWindow(&app, viceroy_.CurrentLevel(app.id, ResourceId::kNetworkBandwidth));
    }
  }

  // Registers a [0.7x, 1.3x] window around |level|; a refused attempt
  // re-centers on the reported current level.
  void RegisterWindow(AppState* app, double level) {
    for (int attempt = 0; attempt < 4; ++attempt) {
      odyssey::ResourceDescriptor descriptor;
      descriptor.resource = ResourceId::kNetworkBandwidth;
      descriptor.lower = level * 0.7;
      descriptor.upper = std::max(level * 1.3, descriptor.lower + 1.0);
      descriptor.handler = [this, app](RequestId, ResourceId resource, double new_level) {
        if (resource != ResourceId::kNetworkBandwidth) {
          return;
        }
        Span span(tracer_, SpanKind::kHandler, delivering_app_, delivering_seq_);
        app->request = 0;  // the delivered upcall consumed the registration
        RegisterWindow(app, new_level);
      };
      odyssey::RequestResult result;
      {
        Span span(tracer_, SpanKind::kRequest);
        result = viceroy_.Request(app->id, descriptor);
      }
      if (tracer_ != nullptr) {
        table_size_max_ = std::max<uint64_t>(table_size_max_, viceroy_.requests().size());
      }
      if (result.ok()) {
        ++requests_ok_;
        app->request = result.id;
        ++windows_registered_;
        Span span(tracer_, SpanKind::kOracle);
        oracle_->OnWindowRegistered(app->id, result.id, descriptor.lower, descriptor.upper);
        return;
      }
      level = result.current_level;
    }
  }

  double WaveRateBps(Time now) const {
    const size_t levels = params_.wave_kbps.size();
    const Duration step = params_.horizon / static_cast<Duration>(levels);
    const size_t index = std::min(static_cast<size_t>(now / step), levels - 1);
    return params_.wave_kbps[index] * 1024.0;
  }

  // Synthetic passive observations: each hot connection reports one window
  // per feed period at its share of the waveform, plus a round trip every
  // tenth tick.  Each record is one viceroy observation (and re-evaluation).
  void Feed() {
    const Time now = sim_.now();
    if (now >= params_.horizon) {
      return;
    }
    Span feed(tracer_, SpanKind::kFeed);
    const double rate = WaveRateBps(now);
    const double period_s = odyssey::DurationToSeconds(kFeedPeriod);
    const int hot = static_cast<int>(weights_.size());
    for (int i = 0; i < hot; ++i) {
      odyssey::ObservationLog& log = endpoints_[static_cast<size_t>(i)]->log();
      {
        Span span(tracer_, SpanKind::kObserve);
        log.RecordThroughput(now, rate * weights_[static_cast<size_t>(i)] * period_s,
                             kFeedPeriod);
      }
      if (static_cast<int>(tick_ % 10) == i % 10) {
        Span span(tracer_, SpanKind::kObserve);
        log.RecordRoundTrip(now, 10 * kMillisecond + static_cast<Duration>(i) * 100);
      }
    }
    ++tick_;
    sim_.Post(kFeedPeriod, [this] { Feed(); });
  }

  void SampleOracle() {
    if (sim_.now() > params_.horizon) {
      return;
    }
    {
      Span span(tracer_, SpanKind::kOracle);
      oracle_->Sample();
    }
    sim_.Post(kOraclePeriod, [this] { SampleOracle(); });
  }

  // Cancels and re-registers a rotating slice of apps, recycling
  // request-table slots.  A failed cancel lost the race with an in-flight
  // upcall, whose handler re-registers instead.
  void CancelSweep() {
    if (sim_.now() >= params_.horizon) {
      return;
    }
    Span sweep_span(tracer_, SpanKind::kCancelSweep);
    const size_t sweep = std::min<size_t>(kCancelSweep, apps_.size());
    for (size_t i = 0; i < sweep; ++i) {
      AppState& app = apps_[cancel_cursor_++ % apps_.size()];
      if (app.request == 0) {
        continue;
      }
      const RequestId cancelled = app.request;
      odyssey::Status status;
      {
        Span span(tracer_, SpanKind::kCancel);
        status = viceroy_.Cancel(cancelled);
      }
      if (status.ok()) {
        {
          Span span(tracer_, SpanKind::kOracle);
          oracle_->OnWindowCancelled(cancelled);
        }
        app.request = 0;
        RegisterWindow(&app, viceroy_.CurrentLevel(app.id, ResourceId::kNetworkBandwidth));
      }
    }
    sim_.Post(kCancelSweepPeriod, [this] { CancelSweep(); });
  }

  const HotcoreParams params_;
  const odyssey::FuzzScenario scenario_;
  odyssey::Simulation sim_;
  odyssey::Link link_;
  // Endpoints outlive the viceroy: the strategy's destructor unsubscribes
  // from their observation logs.
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::vector<std::unique_ptr<Endpoint>> extra_endpoints_;
  odyssey::Viceroy viceroy_;
  TimedStrategy* timed_ = nullptr;
  CentralizedStrategy* central_ = nullptr;
  std::unique_ptr<odyssey::OracleSet> oracle_;
  std::vector<AppState> apps_;
  std::vector<double> weights_;
  SpanTracer* tracer_ = nullptr;
  Fingerprint fingerprint_;
  AppId delivering_app_ = 0;
  uint64_t delivering_seq_ = 0;
  Snapshot base_;
  bool timing_ = false;
  uint64_t unit_start_ns_ = 0;
  std::vector<double> unit_s_;
  uint64_t tick_ = 0;
  uint64_t windows_registered_ = 0;
  uint64_t requests_ok_ = 0;
  uint64_t table_size_max_ = 0;
  size_t cancel_cursor_ = 0;
};

}  // namespace

RepResult RunHotcore(HotcoreShape shape, uint64_t seed, SpanTracer* tracer, bool setup_only) {
  RepResult result;
  const auto setup_start = std::chrono::steady_clock::now();
  HotcoreRig rig(ParamsFor(shape), seed, tracer != nullptr);
  const double warmup_s = rig.SetUp();
  result.setup_s = SecondsSince(setup_start);
  if (setup_only) {
    return result;
  }
  if (tracer != nullptr) {
    tracer->KeepDurations(SpanKind::kObserve);
    tracer->KeepDurations(SpanKind::kRequest);
  }
  const auto run_start = std::chrono::steady_clock::now();
  rig.Run(tracer);
  result.run_s = SecondsSince(run_start);
  result.unit_s = rig.unit_s();
  result.fingerprint = rig.OutputFingerprint();
  result.work = rig.scan_ops();
  result.attempted = rig.upcalls() + rig.windows_registered();
  result.failed = rig.violations();
  if (tracer != nullptr) {
    result.layer = rig.LayerMetrics(*tracer, warmup_s);
  }
  return result;
}

}  // namespace perfbench
