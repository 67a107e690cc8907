#include "src/fleet/fleet_oracle.h"

#include <cmath>
#include <sstream>
#include <utility>

namespace odyssey {
namespace {

// Same shape as the single-node oracles' tolerance: exact arithmetic, so
// the epsilon only absorbs rounding.
double ShareEps(double supply) { return 1e-6 * supply + 1e-3; }

}  // namespace

FleetOracleSet::FleetOracleSet(Simulation* sim, std::vector<NodeBinding> nodes, int servers)
    : sim_(sim), nodes_(std::move(nodes)), servers_(servers) {}

void FleetOracleSet::Report(const std::string& oracle, std::string detail) {
  ++total_violations_;
  if (violations_.size() < OracleSet::kMaxRecordedPerOracle) {
    violations_.push_back(FuzzViolation{oracle, sim_->now(), 0, std::move(detail)});
  }
}

void FleetOracleSet::Sample() {
  const Time now = sim_->now();
  for (const NodeBinding& binding : nodes_) {
    if (binding.model == nullptr || binding.aggregator == nullptr) {
      continue;
    }
    for (int s = 0; s < servers_; ++s) {
      const auto server = static_cast<FleetServerId>(s);
      const FleetAggregator::ServerView view = binding.aggregator->ViewOf(server, now);
      if (!view.valid) {
        continue;
      }
      if (!std::isfinite(view.supply_bps) || view.supply_bps < 0.0) {
        std::ostringstream detail;
        detail << "node " << binding.node << " server " << s << " merged supply "
               << view.supply_bps;
        Report("fleet-share-bounds", detail.str());
        continue;
      }
      const double cap = binding.model->ServerCapFor(server, now);
      if (cap < 0.0) {
        continue;
      }
      // Per-server fair share (ISSUE 9): every client is promised at least
      // supply/(active_clients + 1) of the server, and never more than the
      // whole server supply.
      const double floor =
          view.supply_bps / static_cast<double>(view.active_clients + 1);
      const double eps = ShareEps(view.supply_bps);
      if (cap + eps < floor) {
        std::ostringstream detail;
        detail << "node " << binding.node << " server " << s << " cap " << cap
               << " below per-server fair-share floor " << floor << " (supply "
               << view.supply_bps << ", active " << view.active_clients << ")";
        Report("fleet-share-bounds", detail.str());
      }
      if (cap > view.supply_bps + eps) {
        std::ostringstream detail;
        detail << "node " << binding.node << " server " << s << " cap " << cap
               << " exceeds merged supply " << view.supply_bps;
        Report("fleet-share-bounds", detail.str());
      }
    }
  }
}

void FleetOracleSet::Finish(bool check_convergence) {
  Sample();
  const Time now = sim_->now();
  for (int s = 0; s < servers_; ++s) {
    const auto server = static_cast<FleetServerId>(s);
    double lo = 0.0;
    double hi = 0.0;
    int valid = 0;
    for (const NodeBinding& binding : nodes_) {
      if (binding.aggregator == nullptr) {
        continue;
      }
      const FleetAggregator::ServerView view = binding.aggregator->ViewOf(server, now);
      if (!view.valid) {
        continue;
      }
      if (valid == 0) {
        lo = hi = view.supply_bps;
      } else {
        lo = std::min(lo, view.supply_bps);
        hi = std::max(hi, view.supply_bps);
      }
      ++valid;
    }
    if (valid < 2 || hi <= 0.0) {
      continue;
    }
    const double spread = (hi - lo) / hi;
    final_spread_pct_ = std::max(final_spread_pct_, spread * 100.0);
    if (check_convergence && spread > kConvergenceTolerance) {
      std::ostringstream detail;
      detail << "server " << s << " views diverge after quiescent tail: min " << lo << " max "
             << hi << " spread " << spread * 100.0 << "% over " << valid << " nodes";
      Report("fleet-convergence", detail.str());
    }
  }
}

bool WaveformLiveThroughout(const ReplayTrace& waveform, Time from, Time to) {
  if (waveform.empty()) {
    return false;
  }
  Time cursor = 0;
  for (const TraceSegment& segment : waveform.segments()) {
    const Time begin = cursor;
    cursor += segment.duration;
    if (segment.bandwidth_bps <= 0.0 && begin < to && cursor > from) {
      return false;
    }
  }
  // Past the end the final segment persists (the At() rule), and the
  // generator's drain guarantee keeps it live; check anyway.
  return !(cursor < to && waveform.segments().back().bandwidth_bps <= 0.0);
}

bool FaultPlanQuietAfter(const FaultPlan& plan, Time tail_start) {
  if (plan.drop_probability > 0.0 || !plan.drop_messages.empty()) {
    return false;
  }
  for (const OutageWindow& outage : plan.outages) {
    if (outage.start + outage.duration > tail_start) {
      return false;
    }
  }
  return true;
}

}  // namespace odyssey
