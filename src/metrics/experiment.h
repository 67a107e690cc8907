// The experiment rig: one mobile client, its modulated link, the Odyssey
// ensemble, and the modeled servers — §6.1.3's hardware configuration in
// simulation.  Integration tests and every benchmark build on this.

#ifndef SRC_METRICS_EXPERIMENT_H_
#define SRC_METRICS_EXPERIMENT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/core/odyssey_client.h"
#include "src/net/link.h"
#include "src/net/modulator.h"
#include "src/servers/distillation_server.h"
#include "src/servers/janus_server.h"
#include "src/servers/video_server.h"
#include "src/sim/simulation.h"
#include "src/strategies/centralized.h"
#include "src/tracemod/waveforms.h"
#include "src/wardens/bitstream_warden.h"
#include "src/wardens/speech_warden.h"
#include "src/wardens/video_warden.h"
#include "src/wardens/web_warden.h"

namespace odyssey {

// The default test movie and image the workloads use.
inline constexpr char kDefaultMovie[] = "default";
inline constexpr char kTestImageUrl[] = "http://origin/test-image.jpg";

// Cost of delivering an upcall into an application (signal handler plus
// library dispatch), per the paper's measured upcall propagation latency
// (§6.4: sub-millisecond for a handful of registered applications).
inline constexpr Duration kUpcallLatency = 550;  // 0.55 ms

class ExperimentRig {
 public:
  // Builds the full client stack with the given trial |seed| and the
  // |strategy| named in StrategyRegistry::Builtin() ("odyssey",
  // "laissez-faire", "blind-optimism", ...; asserts the name is registered).
  // The link starts at the high bandwidth until a trace is replayed.
  ExperimentRig(uint64_t seed, const std::string& strategy);

  ExperimentRig(const ExperimentRig&) = delete;
  ExperimentRig& operator=(const ExperimentRig&) = delete;

  // Starts replaying |trace| immediately (with the paper's 30-second
  // priming prefix if |prime| is true) and returns the virtual time at
  // which the measured portion begins.
  Time Replay(const ReplayTrace& trace, bool prime = true);

  Simulation& sim() { return sim_; }
  Link& link() { return link_; }
  Modulator& modulator() { return modulator_; }
  OdysseyClient& client() { return *client_; }
  VideoServer& video_server() { return video_server_; }
  DistillationServer& distillation_server() { return distillation_server_; }
  JanusServer& janus_server() { return janus_server_; }

  // The centralized-family audit surface, if the rig runs one (for share
  // probes in the agility experiments); null otherwise.  For the admission
  // broker this is the inner estimator.
  CentralizedStrategy* centralized() { return centralized_; }

 private:
  Simulation sim_;
  Link link_;
  Modulator modulator_;
  CentralizedStrategy* centralized_ = nullptr;
  std::unique_ptr<OdysseyClient> client_;
  VideoServer video_server_;
  DistillationServer distillation_server_;
  JanusServer janus_server_;
};

}  // namespace odyssey

#endif  // SRC_METRICS_EXPERIMENT_H_
