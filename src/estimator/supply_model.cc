#include "src/estimator/supply_model.h"

#include <algorithm>

#include "src/estimator/naive_supply_model.h"

namespace odyssey {

// --- SupplyModel (incremental) ---
//
// Bit-identity with the naive full rescan rests on two facts: an idle
// connection (meter pruned empty) contributes exactly 0.0 to the aggregate,
// and x + 0.0 == x for every non-negative IEEE double — so summing only the
// live set, in the same ascending-id order the full scan uses, produces the
// same bits.  A memoized rate is the bits RateAt returned for the same
// meter contents at the same instant, and RateAt is a pure function of
// those once pruned, so reading the memo instead of re-evaluating changes
// none.  The differential tests hold the model to this.

SupplyModel::SupplyModel(const SupplyModelConfig& config)
    : config_(config), supply_(config.supply_window) {}

const SupplyModel::PerConnection* SupplyModel::Find(ConnectionId connection) const {
  return connection < connections_.size() && connections_[connection].has_value()
             ? &*connections_[connection]
             : nullptr;
}

SupplyModel::PerConnection* SupplyModel::Find(ConnectionId connection) {
  return connection < connections_.size() && connections_[connection].has_value()
             ? &*connections_[connection]
             : nullptr;
}

std::vector<SupplyModel::LiveEntry>::iterator SupplyModel::LiveLowerBound(
    ConnectionId connection) const {
  return std::lower_bound(
      live_.begin(), live_.end(), connection,
      [](const LiveEntry& entry, ConnectionId id) { return entry.id < id; });
}

void SupplyModel::AddConnection(ConnectionId connection) {
  if (connection >= connections_.size()) {
    connections_.resize(connection + 1);
  }
  if (!connections_[connection].has_value()) {
    connections_[connection].emplace(config_);
    ++registered_;
  }
}

void SupplyModel::RemoveConnection(ConnectionId connection) {
  if (Find(connection) != nullptr) {
    connections_[connection].reset();
    --registered_;
    const auto it = LiveLowerBound(connection);
    if (it != live_.end() && it->id == connection) {
      live_.erase(it);
    }
    ++version_;
  }
}

void SupplyModel::OnRoundTrip(ConnectionId connection, const RoundTripObservation& obs) {
  PerConnection* state = Find(connection);
  if (state == nullptr) {
    return;
  }
  state->estimator.OnRoundTrip(obs);
}

void SupplyModel::OnThroughput(ConnectionId connection, const ThroughputObservation& obs) {
  PerConnection* state = Find(connection);
  if (state == nullptr) {
    return;
  }
  const double raw_bps = state->estimator.OnThroughput(obs);
  // The window's bytes arrived over its whole transfer span, not at the
  // completion instant.
  state->usage.Record(obs.at - obs.elapsed, obs.at, obs.window_bytes);
  const auto pos = LiveLowerBound(connection);
  if (pos == live_.end() || pos->id != connection) {
    live_.insert(pos, LiveEntry{connection, kStale, 0.0});
  } else {
    pos->rate_at = kStale;
  }
  ++version_;

  // Capacity sample: the larger of two lower bounds on link capacity.  The
  // window's raw rate is one (the link carried at least that for one flow);
  // the aggregate recent delivery rate across every connection is another
  // (the link carried at least their sum).  Taking the max never double
  // counts: a burst that ran fast because competitors were momentarily idle
  // is not inflated by their long-run usage.
  ScanAt(obs.at);
  const double aggregate = cached_usage_;
  supply_.Push(obs.at, raw_bps > aggregate ? raw_bps : aggregate);
}

void SupplyModel::OnFailure(ConnectionId connection, const FailureObservation& obs) {
  if (Find(connection) == nullptr) {
    return;
  }
  // A failed exchange is the only downward evidence a dead link produces:
  // no window completes, so no throughput sample would ever age the stale
  // highs out of the envelope.  Push a zero-capacity sample so the supply
  // estimate decays to zero within one envelope window of sustained
  // failure, and availability with it — turning an outage into a
  // disconnection decision instead of optimistic paralysis.
  supply_.Push(obs.at, 0.0);
}

void SupplyModel::ScanAt(Time now) const {
  if (cache_valid_ && cache_at_ == now && cache_version_ == version_) {
    return;
  }
  double aggregate = 0.0;
  int active = 0;
  size_t keep = 0;
  for (LiveEntry entry : live_) {
    bool evict = false;
    if (entry.rate_at != now) {
      const UsageMeter& usage = connections_[entry.id]->usage;
      ++scan_ops_;
      entry.rate = usage.RateAt(now);
      entry.rate_at = now;
      // Eviction: RateAt pruned the meter; once empty it stays empty (event
      // end times are non-decreasing), so the connection is idle for good
      // until its next Record.  A memo from this instant was kept by the
      // scan that took it, so its meter is not empty.
      evict = usage.empty();
    }
    aggregate += entry.rate;
    if (entry.rate > 16.0) {  // UsageMeter::ActiveAt's default threshold
      ++active;
    }
    if (!evict) {
      live_[keep++] = entry;
    }
  }
  live_.resize(keep);
  cache_valid_ = true;
  cache_at_ = now;
  cache_version_ = version_;
  cached_usage_ = aggregate;
  cached_active_ = active;
}

double SupplyModel::AvailabilityFor(ConnectionId connection, Time now) const {
  const double supply = TotalSupply();
  if (supply <= 0.0) {
    return 0.0;
  }
  // Scans at |now|, so every live entry's memo now holds its rate at |now|.
  const int active = ActiveConnectionCount(now);

  // The memoized rate serves both the activity test and the competed-for
  // share below, where the naive model evaluates the meter twice.  A
  // connection outside the live set has an empty meter, which rates
  // exactly 0.0.
  const PerConnection* state = Find(connection);
  double rate = 0.0;
  if (state != nullptr) {
    const auto it = LiveLowerBound(connection);
    if (it != live_.end() && it->id == connection) {
      rate = it->rate;
    }
  }
  const bool self_active = rate > 16.0;  // ActiveAt's threshold

  // Fair share: the expected lower bound (§6.2.1).  If this connection is
  // not among the currently active ones, it would join them, so split one
  // way further.
  const int share_ways = active + (self_active ? 0 : 1);
  const double fair_share = supply / static_cast<double>(share_ways < 1 ? 1 : share_ways);

  if (state == nullptr) {
    return fair_share;
  }

  // Competed-for part: the capacity not currently consumed by anyone is
  // available in proportion to recent use — established traffic has more
  // claim on the headroom than a newcomer, which starts from its fair share
  // and grows as its usage registers ("higher rates of consumption by the
  // first stream give it more weight compared to the startup of the
  // second", §6.2.1).
  const double total_usage = cached_usage_;
  if (total_usage <= 0.0) {
    return fair_share;
  }
  const double slack = supply > total_usage ? supply - total_usage : 0.0;
  const double competed_for = slack * (rate / total_usage);
  const double availability = fair_share + competed_for;
  return availability < supply ? availability : supply;
}

int SupplyModel::ActiveConnectionCount(Time now) const {
  ScanAt(now);
  int active = cached_active_;
  if (active == 0 && registered_ > 0) {
    active = 1;
  }
  return active;
}

const ConnectionEstimator* SupplyModel::EstimatorFor(ConnectionId connection) const {
  const PerConnection* state = Find(connection);
  return state == nullptr ? nullptr : &state->estimator;
}

double SupplyModel::UsageRateFor(ConnectionId connection, Time now) const {
  const PerConnection* state = Find(connection);
  return state == nullptr ? 0.0 : state->usage.RateAt(now);
}

void SupplyModel::CollectLiveConnections(Time now, std::vector<ConnectionId>* out) const {
  (void)now;  // the unevicted live set is a valid superset at any instant
  for (const LiveEntry& entry : live_) {
    out->push_back(entry.id);
  }
}

std::unique_ptr<SupplyModelInterface> MakeSupplyModel(SupplyModelKind kind,
                                                      const SupplyModelConfig& config) {
  if (kind == SupplyModelKind::kNaive) {
    return std::make_unique<NaiveSupplyModel>(config);
  }
  return std::make_unique<SupplyModel>(config);
}

}  // namespace odyssey
