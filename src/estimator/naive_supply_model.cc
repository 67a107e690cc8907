#include "src/estimator/naive_supply_model.h"

namespace odyssey {

// --- NaiveSupplyModel (reference) ---
//
// The pre-scale implementation, verbatim except for the scan_ops counter:
// every estimator update and every availability query rescans all
// registered connections.

NaiveSupplyModel::NaiveSupplyModel(const SupplyModelConfig& config)
    : config_(config), supply_(config.supply_window) {}

void NaiveSupplyModel::AddConnection(ConnectionId connection) {
  connections_.try_emplace(connection, config_);
}

void NaiveSupplyModel::RemoveConnection(ConnectionId connection) {
  connections_.erase(connection);
}

void NaiveSupplyModel::OnRoundTrip(ConnectionId connection, const RoundTripObservation& obs) {
  auto it = connections_.find(connection);
  if (it == connections_.end()) {
    return;
  }
  it->second.estimator.OnRoundTrip(obs);
}

void NaiveSupplyModel::OnThroughput(ConnectionId connection, const ThroughputObservation& obs) {
  auto it = connections_.find(connection);
  if (it == connections_.end()) {
    return;
  }
  const double raw_bps = it->second.estimator.OnThroughput(obs);
  it->second.usage.Record(obs.at - obs.elapsed, obs.at, obs.window_bytes);

  double aggregate = 0.0;
  for (const auto& [id, state] : connections_) {
    ++scan_ops_;
    aggregate += state.usage.RateAt(obs.at);
  }
  supply_.Push(obs.at, raw_bps > aggregate ? raw_bps : aggregate);
}

void NaiveSupplyModel::OnFailure(ConnectionId connection, const FailureObservation& obs) {
  if (!connections_.contains(connection)) {
    return;
  }
  supply_.Push(obs.at, 0.0);
}

double NaiveSupplyModel::AvailabilityFor(ConnectionId connection, Time now) const {
  const double supply = TotalSupply();
  if (supply <= 0.0) {
    return 0.0;
  }
  const int active = ActiveConnectionCount(now);

  const auto it = connections_.find(connection);
  const bool known = it != connections_.end();
  ++scan_ops_;
  const bool self_active = known && it->second.usage.ActiveAt(now);

  const int share_ways = active + (self_active ? 0 : 1);
  const double fair_share = supply / static_cast<double>(share_ways < 1 ? 1 : share_ways);

  if (!known) {
    return fair_share;
  }

  double total_usage = 0.0;
  for (const auto& [id, state] : connections_) {
    ++scan_ops_;
    total_usage += state.usage.RateAt(now);
  }
  if (total_usage <= 0.0) {
    return fair_share;
  }
  const double slack = supply > total_usage ? supply - total_usage : 0.0;
  const double competed_for = slack * (it->second.usage.RateAt(now) / total_usage);
  const double availability = fair_share + competed_for;
  return availability < supply ? availability : supply;
}

int NaiveSupplyModel::ActiveConnectionCount(Time now) const {
  int active = 0;
  for (const auto& [id, state] : connections_) {
    ++scan_ops_;
    if (state.usage.ActiveAt(now)) {
      ++active;
    }
  }
  if (active == 0 && !connections_.empty()) {
    active = 1;
  }
  return active;
}

const ConnectionEstimator* NaiveSupplyModel::EstimatorFor(ConnectionId connection) const {
  const auto it = connections_.find(connection);
  return it == connections_.end() ? nullptr : &it->second.estimator;
}

double NaiveSupplyModel::UsageRateFor(ConnectionId connection, Time now) const {
  const auto it = connections_.find(connection);
  return it == connections_.end() ? 0.0 : it->second.usage.RateAt(now);
}

void NaiveSupplyModel::CollectLiveConnections(Time now, std::vector<ConnectionId>* out) const {
  (void)now;  // the naive model has no live set; every connection qualifies
  for (const auto& [id, state] : connections_) {
    out->push_back(id);
  }
}

}  // namespace odyssey
