// Adaptive retransmit timeouts for the reliability layer
// (reliable_link.h).
//
// A sender learns, per directed link (from, to), how long acks take and
// waits only about that long before retransmitting, instead of a fixed
// SessionOptions::retransmit_timeout_us.  The estimator is RFC 6298's
// (Jacobson/Karels): a smoothed round-trip time SRTT and its mean
// deviation RTTVAR, with RTO = SRTT + 4·RTTVAR.  Two lower bounds keep a
// loss-free run free of spurious retransmits, where acks queue behind a
// busy peer's handlers:
//
//   * twice the largest of the link's last kRecentSamples samples, so one
//     slow ack in a run of fast ones never trips the timer;
//   * a constant floor, kMinRtoUs.
//
// The configured timeout is the RTO before the first sample and its
// ceiling afterwards:
//
//   RTO = min(configured, max(kMinRtoUs, SRTT + 4·RTTVAR, 2·max_recent))
//
// The same estimate without the floor is the probe timeout (PTO, as in
// RFC 9002 §6.2 and RACK-TLP, RFC 8985):
//
//   PTO = max(SRTT + 4·RTTVAR, 2·max_recent)
//
// A sender whose last message on a channel is still unacked one PTO
// after it left asks the receiver whether it arrived (a tail-loss probe,
// reliable_link.h) instead of waiting out the RTO.  A probe only asks,
// so a late ack costs one small message, never a spurious
// retransmission: that is why the floor stays on the RTO, which still
// declares the loss, and not on the PTO.  A link with no sample has no
// PTO and is never probed.
//
// Samples obey Karn's rule: only sends acked on their first attempt
// produce one (an ack for a retransmitted message cannot say which copy
// it answers).  Exponential backoff on retransmission stays the caller's.
//
// LinkRttTable holds the estimates of many links and outlives sessions:
// a QueryService hands one table to the peers of every session it runs,
// so a fresh session starts from what earlier sessions learned (RTT reuse
// across connections, as in RFC 2140 and Linux tcp_metrics).  A PeerNode
// built without one owns a private table.

#ifndef HYPERION_P2P_LINK_RTT_H_
#define HYPERION_P2P_LINK_RTT_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "common/synchronization.h"

namespace hyperion {

/// \brief RFC 6298 round-trip estimator for one link.  Not thread-safe;
/// LinkRttTable adds the locking.
class RttEstimator {
 public:
  /// Window of recent samples behind the 2·max_recent lower bound.
  static constexpr size_t kRecentSamples = 32;
  /// Constant RTO floor.
  static constexpr int64_t kMinRtoUs = 100'000;

  /// \brief Folds in one round-trip sample (µs).  The first sample sets
  /// SRTT = R and RTTVAR = R/2; later ones update RTTVAR with weight 1/4
  /// and SRTT with weight 1/8 (RTTVAR first, against the old SRTT).
  void AddSample(int64_t rtt_us);

  /// \brief The retransmit timeout to wait on a first attempt, given the
  /// configured timeout `configured_us` (the value before any sample, and
  /// the ceiling afterwards).
  int64_t Rto(int64_t configured_us) const;

  /// \brief The probe timeout: the RTO estimate without the constant
  /// floor or the configured ceiling; 0 before any sample (no probing).
  int64_t Pto() const;

  bool has_samples() const { return samples_ > 0; }
  int64_t srtt_us() const { return srtt_us_; }
  int64_t rttvar_us() const { return rttvar_us_; }
  /// Largest of the last kRecentSamples samples (0 before any).
  int64_t max_recent_us() const;

 private:
  int64_t srtt_us_ = 0;
  int64_t rttvar_us_ = 0;
  uint64_t samples_ = 0;
  std::array<int64_t, kRecentSamples> recent_{};  // ring, by samples_
};

/// \brief Thread-safe per-link (from, to) RttEstimator table.
class LinkRttTable {
 public:
  LinkRttTable() = default;
  LinkRttTable(const LinkRttTable&) = delete;
  LinkRttTable& operator=(const LinkRttTable&) = delete;

  void AddSample(const std::string& from, const std::string& to,
                 int64_t rtt_us);
  /// \brief RttEstimator::Rto for the link; `configured_us` when the link
  /// has no sample yet.
  int64_t Rto(const std::string& from, const std::string& to,
              int64_t configured_us) const;
  /// \brief RttEstimator::Pto for the link; 0 when it has no sample yet.
  int64_t Pto(const std::string& from, const std::string& to) const;
  /// \brief A copy of the link's estimator (empty when unseen).
  RttEstimator Estimate(const std::string& from, const std::string& to) const;

 private:
  // Leaf lock (DESIGN.md §12): held only around the map, never across a
  // call out.
  mutable Mutex mu_;
  std::map<std::pair<std::string, std::string>, RttEstimator> links_
      GUARDED_BY(mu_);
};

}  // namespace hyperion

#endif  // HYPERION_P2P_LINK_RTT_H_
