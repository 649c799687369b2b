// PeriodicTimers: the one path a cluster node's protocols arm their
// periods through — heartbeats, the membership sweep and the repair
// pass.  Every(period, tick) runs `tick` on the node's timeline every
// `period_us` of the network's clock, re-arming after each run, until
// Stop() cancels every armed period at once.  A tick that races Stop()
// neither runs nor re-arms.
//
// Threading: Every()/Stop() are callable from any thread; ticks
// run on the network's handler thread.  The mutex is a leaf (DESIGN.md
// §12): it is never held across ScheduleTimer, CancelTimer or a tick.

#ifndef HYPERION_CLUSTER_PERIODIC_H_
#define HYPERION_CLUSTER_PERIODIC_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "common/synchronization.h"
#include "p2p/network_interface.h"

namespace hyperion {
namespace cluster {

class PeriodicTimers {
 public:
  /// \brief Ticks run on `self`'s timeline of `net`, which must outlive
  /// this object.
  PeriodicTimers(std::string self, Network* net);

  /// \brief Arms `tick` every `period_us` (at least 1 ms).
  void Every(int64_t period_us, std::function<void()> tick);

  /// \brief Cancels every armed period.  Idempotent.
  void Stop();

 private:
  struct Period {
    int64_t period_us = 0;
    std::function<void()> tick;
    Network::TimerId timer = 0;  // the armed timer (0 = none)
  };

  // Arms period `id`'s next tick, unless Stop() removed it meanwhile.
  void Arm(uint64_t id);
  void Fire(uint64_t id);

  const std::string self_;
  Network* const net_;

  Mutex mu_;
  uint64_t next_id_ GUARDED_BY(mu_) = 1;
  std::map<uint64_t, Period> periods_ GUARDED_BY(mu_);
};

}  // namespace cluster
}  // namespace hyperion

#endif  // HYPERION_CLUSTER_PERIODIC_H_
