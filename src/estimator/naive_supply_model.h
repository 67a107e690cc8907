// The naive supply model: the original O(registered-connections)
// implementation of SupplyModelInterface, kept verbatim as the reference
// side of the differential tests (tests/scale_differential_test.cc) and
// selected by SupplyModelKind::kNaive.  Never used in production paths; the
// production model is SupplyModel in supply_model.h.  It keeps its
// original ordered-map layout on purpose: the reference is only useful if
// it shares no data-structure code with the model it checks.

#ifndef SRC_ESTIMATOR_NAIVE_SUPPLY_MODEL_H_
#define SRC_ESTIMATOR_NAIVE_SUPPLY_MODEL_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/estimator/connection_estimator.h"
#include "src/estimator/sliding_max.h"
#include "src/estimator/supply_model.h"
#include "src/estimator/usage_meter.h"
#include "src/rpc/observation_log.h"
#include "src/sim/time.h"

namespace odyssey {

// The original O(registered-connections) implementation, preserved as the
// reference side of the differential tests.
class NaiveSupplyModel : public SupplyModelInterface {
 public:
  explicit NaiveSupplyModel(const SupplyModelConfig& config = {});

  const char* name() const override { return "naive"; }
  void AddConnection(ConnectionId connection) override;
  void RemoveConnection(ConnectionId connection) override;
  void OnRoundTrip(ConnectionId connection, const RoundTripObservation& obs) override;
  void OnThroughput(ConnectionId connection, const ThroughputObservation& obs) override;
  void OnFailure(ConnectionId connection, const FailureObservation& obs) override;
  double TotalSupply() const override { return supply_.value(); }
  bool has_supply() const override { return supply_.has_value(); }
  double AvailabilityFor(ConnectionId connection, Time now) const override;
  int ActiveConnectionCount(Time now) const override;
  const ConnectionEstimator* EstimatorFor(ConnectionId connection) const override;
  double UsageRateFor(ConnectionId connection, Time now) const override;
  void CollectLiveConnections(Time now, std::vector<ConnectionId>* out) const override;
  uint64_t scan_ops() const override { return scan_ops_; }

 private:
  struct PerConnection {
    ConnectionEstimator estimator;
    UsageMeter usage;

    explicit PerConnection(const SupplyModelConfig& config)
        : estimator(config.estimator), usage(config.usage_tau) {}
  };

  SupplyModelConfig config_;
  std::map<ConnectionId, PerConnection> connections_;
  SlidingMax supply_;
  mutable uint64_t scan_ops_ = 0;
};

}  // namespace odyssey

#endif  // SRC_ESTIMATOR_NAIVE_SUPPLY_MODEL_H_
