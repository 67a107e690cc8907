// Centralized supply and per-connection availability estimation (§6.2.1).
//
// The viceroy collects information from all endpoint logs to estimate the
// total bandwidth available to the client, then estimates the fraction
// likely to be available to each connection as the larger of a *fair-share*
// lower bound (supply / active connections) and a *competed-for* part
// proportional to recent use.
//
// Supply estimation: each completed window yields a capacity sample equal
// to the larger of two lower bounds — the window's raw rate (the link
// carried at least that much for one flow) and the aggregate recent
// delivery rate across all connections (the link carried at least their
// sum).  Since every sample is a lower bound, the supply estimate is their
// upper envelope: a sliding-window maximum anchored at the latest
// observation.  A capacity drop is detected once the stale high samples
// age out (about one window), matching the paper's ~2 s Step-Down settling
// and its observation that the 2 s downward impulse is too short for
// estimation to settle.  Per-
// connection availability is the fair share (supply / active connections)
// plus a competed-for slice of the unused headroom proportional to recent
// use, capped at the supply.
//
// Two implementations live behind SupplyModelInterface:
//
//   * SupplyModel — the production model.  It keeps a *live set*: the
//     connections whose usage meters may still hold unexpired events.  An
//     idle connection's rate is exactly 0.0 and adding 0.0 to an IEEE sum
//     of non-negative terms changes no bits, so summing only the live set
//     in ascending connection-id order reproduces the full-scan aggregate
//     bit for bit while costing O(recently active) instead of
//     O(registered).  Each live entry memoizes its meter's rate at the
//     instant it was last evaluated; a record into the meter marks the
//     entry stale.  A scan re-evaluates only stale entries and entries
//     memoized at another instant, so the burst of same-instant
//     observations a feed tick delivers costs one full evaluation of the
//     live set, then one meter per further observation.  The aggregate
//     and active count are cached per (time, mutation version), and
//     availability queries read their connection's rate from the memo, so
//     the viceroy re-evaluating every app after an observation evaluates
//     no meter at all.  Per-connection state sits in a vector indexed by
//     the dense ConnectionId, so a lookup is one bounds check and one
//     load.
//   * NaiveSupplyModel (naive_supply_model.h) — the original full-rescan
//     implementation, kept verbatim as the reference side of the
//     differential tests (tests/scale_differential_test.cc).  Never used
//     in production paths.

#ifndef SRC_ESTIMATOR_SUPPLY_MODEL_H_
#define SRC_ESTIMATOR_SUPPLY_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "src/estimator/connection_estimator.h"
#include "src/estimator/sliding_max.h"
#include "src/estimator/usage_meter.h"
#include "src/rpc/observation_log.h"
#include "src/sim/time.h"

namespace odyssey {

struct SupplyModelConfig {
  EstimatorConfig estimator;
  // Time constant of the recent-use decay.
  Duration usage_tau = 2 * kSecond;
  // Width of the supply upper-envelope window.
  Duration supply_window = 2 * kSecond;
  // A connection with no usage for this long stops counting toward the
  // fair-share denominator.
  Duration activity_window = 5 * kSecond;
};

// The estimator contract shared by the incremental model and the naive
// reference.  Everything the strategies, oracles and diagnostics need.
class SupplyModelInterface {
 public:
  virtual ~SupplyModelInterface() = default;

  virtual const char* name() const = 0;

  // Registers a connection.  Registered connections count toward fair-share
  // splitting once they have recent usage.
  virtual void AddConnection(ConnectionId connection) = 0;
  virtual void RemoveConnection(ConnectionId connection) = 0;

  // Feeds observations from connection logs.
  virtual void OnRoundTrip(ConnectionId connection, const RoundTripObservation& obs) = 0;
  virtual void OnThroughput(ConnectionId connection, const ThroughputObservation& obs) = 0;
  virtual void OnFailure(ConnectionId connection, const FailureObservation& obs) = 0;

  // Estimated total bandwidth available to the client, bytes/second.
  virtual double TotalSupply() const = 0;
  virtual bool has_supply() const = 0;

  // Estimated bandwidth available to |connection| at time |now|:
  // max(fair share, competed-for share).  Unknown connections get the fair
  // share of a hypothetical additional connection.
  virtual double AvailabilityFor(ConnectionId connection, Time now) const = 0;

  // Number of connections with significant recent usage at |now| (at least
  // one, once any connection exists).
  virtual int ActiveConnectionCount(Time now) const = 0;

  // Per-connection smoothed estimates, for diagnostics and the
  // laissez-faire strategy.
  virtual const ConnectionEstimator* EstimatorFor(ConnectionId connection) const = 0;
  virtual double UsageRateFor(ConnectionId connection, Time now) const = 0;

  // Appends the connections whose availability may differ from the idle
  // level at |now| (a superset is allowed).  The centralized strategy turns
  // these into the dirty-app set of its re-evaluation hint.
  virtual void CollectLiveConnections(Time now, std::vector<ConnectionId>* out) const = 0;

  // Lifetime count of per-connection meter evaluations the model actually
  // performed for aggregate scans and availability queries — a
  // deterministic proxy for its work, independent of the machine (the
  // tier_scale campaign charts it against the naive model's count).  A
  // rate answered from a memo is not an evaluation.
  virtual uint64_t scan_ops() const = 0;
};

// The incremental production model (live set + per-meter rate memo).
class SupplyModel : public SupplyModelInterface {
 public:
  explicit SupplyModel(const SupplyModelConfig& config = {});

  const char* name() const override { return "incremental"; }
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

  // The state of |connection|, or null if it is not registered.
  const PerConnection* Find(ConnectionId connection) const;
  PerConnection* Find(ConnectionId connection);

  // A live-set entry: a connection whose meter may hold unexpired events,
  // with the meter's rate memoized as evaluated at |rate_at|.  The memo
  // sits here rather than in PerConnection so it costs O(live) memory,
  // not O(registered).
  struct LiveEntry {
    ConnectionId id;
    Time rate_at;
    double rate;
  };
  // |rate_at| of an entry whose meter was recorded into since its last
  // evaluation; no simulated instant equals it.
  static constexpr Time kStale = std::numeric_limits<Time>::min();

  // The first live entry whose id is not below |connection|.
  std::vector<LiveEntry>::iterator LiveLowerBound(ConnectionId connection) const;

  // Recomputes (and caches) the aggregate usage rate and active count over
  // the live set at |now|, evaluating only meters whose memo is stale or
  // from another instant, and evicting connections whose meters pruned
  // empty.  Afterwards every live entry's memo holds its rate at |now|.
  void ScanAt(Time now) const;

  SupplyModelConfig config_;
  // Indexed by ConnectionId; disengaged for ids not (or no longer)
  // registered.  |registered_| counts the engaged entries.
  std::vector<std::optional<PerConnection>> connections_;
  size_t registered_ = 0;
  SlidingMax supply_;

  // Ascending by id.  Every connection whose meter is non-empty has an
  // entry (a connection without one rates exactly 0.0).  Mutated lazily
  // from const scans (memo refresh, eviction), like the meters' pruning.
  mutable std::vector<LiveEntry> live_;

  // Cache of the last ScanAt, keyed by (time, mutation version).
  mutable bool cache_valid_ = false;
  mutable Time cache_at_ = 0;
  mutable uint64_t cache_version_ = 0;
  mutable double cached_usage_ = 0.0;
  mutable int cached_active_ = 0;

  uint64_t version_ = 0;  // bumped whenever a meter or the live set changes
  mutable uint64_t scan_ops_ = 0;
};

// Which implementation a strategy should instantiate.
enum class SupplyModelKind {
  kIncremental,  // production
  kNaive,        // differential-test reference
};

std::unique_ptr<SupplyModelInterface> MakeSupplyModel(SupplyModelKind kind,
                                                      const SupplyModelConfig& config);

}  // namespace odyssey

#endif  // SRC_ESTIMATOR_SUPPLY_MODEL_H_
