#include "p2p/link_rtt.h"

#include <algorithm>
#include <cstdlib>

namespace hyperion {

void RttEstimator::AddSample(int64_t rtt_us) {
  if (samples_ == 0) {
    srtt_us_ = rtt_us;
    rttvar_us_ = rtt_us / 2;
  } else {
    rttvar_us_ = (3 * rttvar_us_ + std::abs(srtt_us_ - rtt_us)) / 4;
    srtt_us_ = (7 * srtt_us_ + rtt_us) / 8;
  }
  recent_[samples_ % kRecentSamples] = rtt_us;
  ++samples_;
}

int64_t RttEstimator::max_recent_us() const {
  return *std::max_element(recent_.begin(), recent_.end());
}

int64_t RttEstimator::Pto() const {
  if (samples_ == 0) return 0;
  return std::max(srtt_us_ + 4 * rttvar_us_, 2 * max_recent_us());
}

int64_t RttEstimator::Rto(int64_t configured_us) const {
  if (samples_ == 0) return configured_us;
  return std::min(configured_us, std::max(kMinRtoUs, Pto()));
}

void LinkRttTable::AddSample(const std::string& from, const std::string& to,
                             int64_t rtt_us) {
  MutexLock lock(mu_);
  links_[{from, to}].AddSample(rtt_us);
}

int64_t LinkRttTable::Rto(const std::string& from, const std::string& to,
                          int64_t configured_us) const {
  MutexLock lock(mu_);
  auto it = links_.find({from, to});
  return it == links_.end() ? configured_us : it->second.Rto(configured_us);
}

int64_t LinkRttTable::Pto(const std::string& from,
                          const std::string& to) const {
  MutexLock lock(mu_);
  auto it = links_.find({from, to});
  return it == links_.end() ? 0 : it->second.Pto();
}

RttEstimator LinkRttTable::Estimate(const std::string& from,
                                    const std::string& to) const {
  MutexLock lock(mu_);
  auto it = links_.find({from, to});
  return it == links_.end() ? RttEstimator() : it->second;
}

}  // namespace hyperion
