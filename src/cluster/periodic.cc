#include "cluster/periodic.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace hyperion {
namespace cluster {

PeriodicTimers::PeriodicTimers(std::string self, Network* net)
    : self_(std::move(self)), net_(net) {}

void PeriodicTimers::Every(int64_t period_us, std::function<void()> tick) {
  uint64_t id;
  {
    MutexLock lock(mu_);
    id = next_id_++;
    periods_[id] = Period{std::max<int64_t>(period_us, 1000), std::move(tick)};
  }
  Arm(id);
}

void PeriodicTimers::Arm(uint64_t id) {
  int64_t period_us;
  {
    MutexLock lock(mu_);
    auto it = periods_.find(id);
    if (it == periods_.end()) return;
    period_us = it->second.period_us;
  }
  auto timer =
      net_->ScheduleTimer(self_, period_us, [this, id] { Fire(id); });
  if (!timer.ok()) return;
  bool stopped;
  {
    MutexLock lock(mu_);
    auto it = periods_.find(id);
    stopped = it == periods_.end();
    if (!stopped) it->second.timer = timer.value();
  }
  // Stop() may have raced us between the checks; it has already
  // cancelled whatever id it saw, so cancel the fresh one ourselves.
  if (stopped) net_->CancelTimer(timer.value());
}

void PeriodicTimers::Fire(uint64_t id) {
  std::function<void()> tick;
  {
    MutexLock lock(mu_);
    auto it = periods_.find(id);
    if (it == periods_.end()) return;
    it->second.timer = 0;
    tick = it->second.tick;
  }
  tick();
  Arm(id);
}

void PeriodicTimers::Stop() {
  std::vector<Network::TimerId> armed;
  {
    MutexLock lock(mu_);
    for (const auto& [id, period] : periods_) {
      if (period.timer != 0) armed.push_back(period.timer);
    }
    periods_.clear();
  }
  for (Network::TimerId timer : armed) net_->CancelTimer(timer);
}

}  // namespace cluster
}  // namespace hyperion
