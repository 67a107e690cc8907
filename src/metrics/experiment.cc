#include "src/metrics/experiment.h"

#include <utility>

#include "src/core/contract.h"
#include "src/servers/calibration.h"
#include "src/strategies/strategy_registry.h"

namespace odyssey {

ExperimentRig::ExperimentRig(uint64_t seed, const std::string& strategy)
    : sim_(seed),
      link_(&sim_, kHighBandwidth, kOneWayLatency),
      modulator_(&sim_, &link_),
      video_server_(&sim_.rng()),
      distillation_server_(&sim_.rng()),
      janus_server_(&sim_.rng()) {
  StrategyContext context;
  context.sim = &sim_;
  context.modulator = &modulator_;
  std::unique_ptr<BandwidthStrategy> bandwidth_strategy =
      StrategyRegistry::Builtin().Create(strategy, std::move(context));
  centralized_ = bandwidth_strategy->audit_surface();
  client_ = std::make_unique<OdysseyClient>(&sim_, &link_, std::move(bandwidth_strategy),
                                            kUpcallLatency);

  // The rig is freshly constructed, so the catalog cannot already hold the
  // default movie; a failure here would invalidate every trial.
  const Status added =
      video_server_.AddMovie(VideoServer::MakeDefaultMovie(kDefaultMovie, kVideoFramesPerTrial));
  ODY_ASSERT(added.ok(), "experiment rig failed to seed the video catalog");
  distillation_server_.PublishImage(kTestImageUrl, kWebImageBytes);

  client_->InstallWarden(std::make_unique<VideoWarden>(&video_server_));
  client_->InstallWarden(std::make_unique<WebWarden>(&distillation_server_));
  client_->InstallWarden(std::make_unique<SpeechWarden>(&janus_server_));
  client_->InstallWarden(std::make_unique<BitstreamWarden>());
}

Time ExperimentRig::Replay(const ReplayTrace& trace, bool prime) {
  const ReplayTrace primed = prime ? trace.WithPriming(kPrimingPeriod) : trace;
  modulator_.Replay(primed);
  return sim_.now() + (prime ? kPrimingPeriod : 0);
}

}  // namespace odyssey
