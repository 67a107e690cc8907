#include "src/core/money_meter.h"

#include "src/core/contract.h"

namespace odyssey {

MoneyMeter::MoneyMeter(Simulation* sim, Viceroy* viceroy, Link* link, const Config& config)
    : sim_(sim),
      viceroy_(viceroy),
      link_(link),
      config_(config),
      remaining_cents_(config.budget_cents) {}

MoneyMeter::MoneyMeter(Simulation* sim, Viceroy* viceroy, Link* link)
    : MoneyMeter(sim, viceroy, link, Config()) {}

void MoneyMeter::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  last_bytes_ = link_->bytes_delivered();
  const Status published = viceroy_->SetStaticLevel(ResourceId::kMoney, remaining_cents_);
  ODY_ASSERT(published.ok(), "money level rejected by the viceroy");
  sim_->Schedule(config_.update_period, [this] { Tick(); });
}

void MoneyMeter::Tick() {
  const double bytes = link_->bytes_delivered();
  const double moved_mb = (bytes - last_bytes_) / (1024.0 * 1024.0);
  last_bytes_ = bytes;
  remaining_cents_ -= moved_mb * config_.cents_per_mb;
  if (remaining_cents_ < 0.0) {
    remaining_cents_ = 0.0;
  }
  const Status published = viceroy_->SetStaticLevel(ResourceId::kMoney, remaining_cents_);
  ODY_ASSERT(published.ok(), "money level rejected by the viceroy");
  if (remaining_cents_ > 0.0) {
    sim_->Schedule(config_.update_period, [this] { Tick(); });
  }
}

}  // namespace odyssey
