// A LogListener that records every observation it is passed, in order.
// ObservationLog keeps no history, so tests observe a log through the same
// listener interface the bandwidth strategies use.

#ifndef TESTS_RECORDING_LISTENER_H_
#define TESTS_RECORDING_LISTENER_H_

#include <vector>

#include "src/rpc/observation_log.h"

namespace odyssey {

class RecordingListener : public LogListener {
 public:
  void OnRoundTrip(ConnectionId connection, const RoundTripObservation& obs) override {
    last_connection = connection;
    round_trips.push_back(obs);
  }
  void OnThroughput(ConnectionId connection, const ThroughputObservation& obs) override {
    last_connection = connection;
    throughputs.push_back(obs);
  }
  void OnFailure(ConnectionId connection, const FailureObservation& obs) override {
    last_connection = connection;
    failures.push_back(obs);
  }

  ConnectionId last_connection = 0;
  std::vector<RoundTripObservation> round_trips;
  std::vector<ThroughputObservation> throughputs;
  std::vector<FailureObservation> failures;
};

}  // namespace odyssey

#endif  // TESTS_RECORDING_LISTENER_H_
