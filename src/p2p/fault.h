// FaultInjector: the decision engine both transports share for applying
// a FaultPlan.  Given a (from, to, depart-time) triple it decides —
// deterministically from the plan's seed and the call sequence — whether
// the message is dropped, how many copies are delivered, and how much
// extra delay each copy suffers.  The caller owns all bookkeeping
// (stats, metrics, actually enqueueing copies); the injector only rolls
// the dice, so SimNetwork and TcpNetwork cannot drift apart in how they
// interpret a plan.

#ifndef HYPERION_P2P_FAULT_H_
#define HYPERION_P2P_FAULT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "p2p/network_interface.h"

namespace hyperion {

/// \brief Deterministic per-send fault decisions for a FaultPlan.
/// Not thread-safe; callers serialize access (SimNetwork is
/// single-threaded, TcpNetwork consults it under its mutex).
class FaultInjector {
 public:
  FaultInjector() : rng_(1) {}

  /// \brief Installs `plan`; reseeds the PRNG from plan.seed.
  void SetPlan(FaultPlan plan) {
    plan_ = std::move(plan);
    active_ = !plan_.empty();
    rng_ = Rng(plan_.seed == 0 ? 1 : plan_.seed);
  }

  /// \brief Whether any fault can ever be injected.
  bool active() const { return active_; }

  const FaultPlan& plan() const { return plan_; }

  /// \brief Outcome of one Send through the fault layer.
  struct SendDecision {
    bool dropped = false;
    /// Extra delay per delivered copy; size() is the copy count
    /// (1 normally, 2 when duplicated, 0 when dropped).
    std::vector<int64_t> copy_jitter_us;
  };

  /// \brief Rolls drop/duplicate/jitter for one message departing on
  /// (from → to) at `depart_us`.  Consumes PRNG state even for the
  /// never-delivered cases so decisions stay aligned with the send
  /// sequence.
  SendDecision OnSend(const std::string& from, const std::string& to,
                      int64_t depart_us);

  /// \brief Whether `peer` is crashed at `t_us` (delivery/timer gate).
  bool PeerDownAt(const std::string& peer, int64_t t_us) const {
    return active_ && plan_.PeerDownAt(peer, t_us);
  }

 private:
  FaultPlan plan_;
  Rng rng_;
  bool active_ = false;
};

}  // namespace hyperion

#endif  // HYPERION_P2P_FAULT_H_
