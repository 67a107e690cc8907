#include "src/core/battery_model.h"

#include "src/core/contract.h"

namespace odyssey {

BatteryModel::BatteryModel(Simulation* sim, Viceroy* viceroy, Link* link, const Config& config)
    : sim_(sim),
      viceroy_(viceroy),
      link_(link),
      config_(config),
      remaining_minutes_(config.capacity_minutes) {}

BatteryModel::BatteryModel(Simulation* sim, Viceroy* viceroy, Link* link)
    : BatteryModel(sim, viceroy, link, Config()) {}

void BatteryModel::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  last_tick_ = sim_->now();
  last_bytes_ = link_->bytes_delivered();
  const Status published =
      viceroy_->SetStaticLevel(ResourceId::kBatteryPower, remaining_minutes_);
  ODY_ASSERT(published.ok(), "battery level rejected by the viceroy");
  sim_->Schedule(config_.update_period, [this] { Tick(); });
}

void BatteryModel::Tick() {
  const Time now = sim_->now();
  const double elapsed_minutes = DurationToSeconds(now - last_tick_) / 60.0;
  const double bytes = link_->bytes_delivered();
  const double moved_mb = (bytes - last_bytes_) / (1024.0 * 1024.0);
  last_tick_ = now;
  last_bytes_ = bytes;

  remaining_minutes_ -= elapsed_minutes * config_.idle_drain_rate +
                        moved_mb * config_.network_minutes_per_mb;
  if (remaining_minutes_ < 0.0) {
    remaining_minutes_ = 0.0;
  }
  const Status published =
      viceroy_->SetStaticLevel(ResourceId::kBatteryPower, remaining_minutes_);
  ODY_ASSERT(published.ok(), "battery level rejected by the viceroy");
  if (remaining_minutes_ > 0.0) {
    sim_->Schedule(config_.update_period, [this] { Tick(); });
  }
}

}  // namespace odyssey
