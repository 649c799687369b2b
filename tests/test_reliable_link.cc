// The reliability layer on its own (p2p/reliable_link.h, DESIGN.md §9):
// two ReliableLink endpoints, A sending and B receiving, on one
// SimNetwork at exact virtual times, with no cover engine.  Links take
// 10 ms and every delivered message costs 1 ms; chosen messages are
// dropped by link outages.  A counting Network in front of the sim
// pins the timer traffic: one timer per channel, however many sends it
// holds.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "p2p/link_rtt.h"
#include "p2p/network.h"
#include "p2p/reliable_link.h"
#include "p2p/wire.h"
#include "test_util.h"

namespace hyperion {
namespace {

constexpr int64_t kMs = 1'000;
constexpr SessionId kSession = 7;

uint64_t CounterValue(const char* name) {
  return obs::MetricRegistry::Default().GetCounter(name)->value();
}

// SimNetwork behind a Network that counts timers: how many were armed,
// cancelled and fired, and the most ever pending at once.
class TimerCountingNetwork : public Network {
 public:
  explicit TimerCountingNetwork(SimNetwork::Options options)
      : sim_(std::move(options)) {}

  Status RegisterPeer(const std::string& id, Handler handler) override {
    return sim_.RegisterPeer(id, std::move(handler));
  }
  Status Send(Message msg) override {
    if (on_send_) on_send_(msg);
    return sim_.Send(std::move(msg));
  }
  Result<TimerId> ScheduleTimer(const std::string& peer, int64_t delay_us,
                                TimerCallback cb) override {
    auto id = std::make_shared<TimerId>(0);
    auto timer = sim_.ScheduleTimer(
        peer, delay_us, [this, id, cb = std::move(cb)] {
          pending_.erase(*id);
          ++fired_;
          cb();
        });
    if (timer.ok()) {
      *id = timer.value();
      pending_.insert(*id);
      ++armed_;
      max_pending_ = std::max(max_pending_, pending_.size());
    }
    return timer;
  }
  void CancelTimer(TimerId id) override {
    if (pending_.erase(id) > 0) ++cancelled_;
    sim_.CancelTimer(id);
  }
  void SetFaultPlan(FaultPlan plan) override {
    sim_.SetFaultPlan(std::move(plan));
  }
  int64_t now_us() const override { return sim_.now_us(); }
  void ChargeCompute(int64_t micros) override { sim_.ChargeCompute(micros); }
  NetworkStats stats() const override { return sim_.stats(); }
  void ResetStats() override { sim_.ResetStats(); }

  // The test's own drivers arm their timers here, uncounted.
  SimNetwork& sim() { return sim_; }
  // Sees every message as it is handed to the sim.
  void OnSend(std::function<void(const Message&)> fn) {
    on_send_ = std::move(fn);
  }
  Result<int64_t> Run() { return sim_.Run(); }

  size_t armed() const { return armed_; }
  size_t cancelled() const { return cancelled_; }
  size_t fired() const { return fired_; }
  size_t pending() const { return pending_.size(); }
  size_t max_pending() const { return max_pending_; }

 private:
  SimNetwork sim_;
  std::set<TimerId> pending_;
  size_t armed_ = 0;
  size_t cancelled_ = 0;
  size_t fired_ = 0;
  size_t max_pending_ = 0;
  std::function<void(const Message&)> on_send_;
};

// One delivery at B: when it was handed over, and its seq.
struct Delivery {
  int64_t at_us;
  uint64_t seq;
  bool operator==(const Delivery& o) const {
    return at_us == o.at_us && seq == o.seq;
  }
};

void PrintTo(const Delivery& d, std::ostream* os) {
  *os << "{seq " << d.seq << " at " << d.at_us << " us}";
}

// A sends cover batches of session kSession, partition 0, to B.
class LinkPair {
 public:
  explicit LinkPair(FaultPlan plan)
      : net_(testing_util::SimChain::Options(10 * kMs, 1 * kMs)),
        a_("A", rtt_, [](const Message&) {},
           [this](const ReliableLink::Abandoned& send) {
             abandoned_.push_back(send);
             abandoned_at_us_ = net_.now_us();
           }),
        b_("B", rtt_,
           [this](const Message& msg) {
             delivered_.push_back(
                 {net_.now_us(), std::get<CoverBatchMsg>(msg.payload).seq});
             if (on_delivery_) on_delivery_();
           },
           [](const ReliableLink::Abandoned&) {}) {
    net_.SetFaultPlan(std::move(plan));
    EXPECT_TRUE(
        net_.RegisterPeer("A", [this](const Message& m) { a_.Receive(m); })
            .ok());
    EXPECT_TRUE(
        net_.RegisterPeer("B", [this](const Message& m) { b_.Receive(m); })
            .ok());
    a_.Attach(&net_);
    b_.Attach(&net_);
  }

  // A sends one batch at `at_us`, with a configured RTO of `timeout_us`.
  void SendAt(int64_t at_us, int64_t timeout_us = 100 * kMs,
              int max_retransmits = 5) {
    ASSERT_TRUE(net_.sim()
                    .ScheduleTimer("A", at_us,
                                   [this, timeout_us, max_retransmits] {
                                     CoverBatchMsg batch;
                                     batch.session = kSession;
                                     EXPECT_TRUE(
                                         a_.Send(Message{"A", "B", batch},
                                                 timeout_us, max_retransmits,
                                                 "cover streaming", "A")
                                             .ok());
                                   })
                    .ok());
  }

  // Feeds link A -> B `samples` round trips of `rtt_us`.
  void Warm(int64_t rtt_us, int samples) {
    for (int i = 0; i < samples; ++i) rtt_->AddSample("A", "B", rtt_us);
  }

  int64_t Run() {
    auto end = net_.Run();
    EXPECT_TRUE(end.ok()) << end.status();
    return end.ok() ? end.value() : -1;
  }

  TimerCountingNetwork& net() { return net_; }
  ReliableLink& a() { return a_; }
  const std::vector<Delivery>& delivered() const { return delivered_; }
  const std::vector<ReliableLink::Abandoned>& abandoned() const {
    return abandoned_;
  }
  int64_t abandoned_at_us() const { return abandoned_at_us_; }
  void OnDelivery(std::function<void()> fn) { on_delivery_ = std::move(fn); }

 private:
  TimerCountingNetwork net_;
  std::shared_ptr<LinkRttTable> rtt_ = std::make_shared<LinkRttTable>();
  ReliableLink a_;
  ReliableLink b_;
  std::vector<Delivery> delivered_;
  std::vector<ReliableLink::Abandoned> abandoned_;
  int64_t abandoned_at_us_ = -1;
  std::function<void()> on_delivery_;
};

FaultPlan Outage(const std::string& from, const std::string& to,
                 int64_t start_us, int64_t end_us) {
  FaultPlan plan;
  plan.links[{from, to}].outages_us = {{start_us, end_us}};
  return plan;
}

TEST(ReliableLinkTest, LostMidStreamSendIsResentWhenItsHoleIsReported) {
  // Seqs 1-3 leave A at 0, 1 and 2 ms; seq 2 is lost.  B delivers seq 1
  // at 11 ms, parks seq 3 at 13 ms and acks it with next_expected 2,
  // which reaches A at 23 ms: A resends seq 2 at 24 ms, and B delivers
  // seqs 2 and 3 at 35 ms.  A handles the last ack at 45-46 ms and
  // cancels its timer; the 100 ms RTO never fires.
  const uint64_t retransmits = CounterValue("proto.retransmits");
  const uint64_t fast = CounterValue("proto.fast_retransmits");
  LinkPair pair(Outage("A", "B", 500, 1'500));
  for (int64_t at : {0, 1, 2}) pair.SendAt(at * kMs);
  EXPECT_EQ(pair.Run(), 46 * kMs);
  EXPECT_EQ(pair.delivered(),
            (std::vector<Delivery>{{11 * kMs, 1}, {35 * kMs, 2},
                                   {35 * kMs, 3}}));
  EXPECT_EQ(pair.net().stats().drops_injected, 1u);
  EXPECT_EQ(pair.net().fired(), 0u);
  EXPECT_EQ(pair.net().pending(), 0u);
  if constexpr (obs::kMetricsEnabled) {
    EXPECT_EQ(CounterValue("proto.retransmits") - retransmits, 1u);
    EXPECT_EQ(CounterValue("proto.fast_retransmits") - fast, 1u);
  }
}

TEST(ReliableLinkTest, RetransmittedBatchEncodesAsItsFirstSend) {
  // A 64-row batch's first send is lost; A resends its kept copy at the
  // 100 ms RTO.  The sender drops its own rows right after the send, so
  // the resend reads only the cells the link's copy shares with them.
  LinkPair pair(Outage("A", "B", -500, 50 * kMs));
  std::vector<std::string> sent;
  pair.net().OnSend([&sent](const Message& msg) {
    if (std::holds_alternative<CoverBatchMsg>(msg.payload)) {
      sent.push_back(wire::EncodeMessage(msg));
    }
  });
  auto send_and_drop_rows = [&pair] {
    auto rows = std::make_unique<std::vector<Mapping>>();
    for (int i = 0; i < 64; ++i) {
      rows->push_back(Mapping::FromTuple(
          {Value("row-of-the-first-batch-" + std::to_string(i)),
           Value(int64_t{i})}));
    }
    CoverBatchMsg batch;
    batch.session = kSession;
    batch.schema = Schema::Of(
        {Attribute::String("A"), Attribute("N", Domain::AllInts())});
    batch.rows = *rows;
    EXPECT_TRUE(pair.a()
                    .Send(Message{"A", "B", std::move(batch)}, 100 * kMs, 5,
                          "cover streaming", "A")
                    .ok());
    rows.reset();
  };
  ASSERT_TRUE(
      pair.net().sim().ScheduleTimer("A", 0, send_and_drop_rows).ok());
  EXPECT_EQ(pair.Run(), 122 * kMs);
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_EQ(sent[1], sent[0]);
  EXPECT_EQ(pair.delivered(), (std::vector<Delivery>{{111 * kMs, 1}}));
  EXPECT_EQ(pair.net().stats().drops_injected, 1u);
}

TEST(ReliableLinkTest, EachSendRetransmitsAtItsOwnDeadline) {
  // Seqs 1 and 2 leave at 0 and 30 ms and are both lost; with no RTT
  // sample each waits the configured 100 ms.  One channel timer serves
  // both, yet seq 1 is resent at 100 ms (delivered at 111 ms) and seq 2
  // at 130 ms (delivered at 141 ms).  The run ends when A handles the
  // ack of seq 2, at 151-152 ms.
  const uint64_t retransmits = CounterValue("proto.retransmits");
  const uint64_t fast = CounterValue("proto.fast_retransmits");
  LinkPair pair(Outage("A", "B", -500, 50 * kMs));
  pair.SendAt(0);
  pair.SendAt(30 * kMs);
  EXPECT_EQ(pair.Run(), 152 * kMs);
  EXPECT_EQ(pair.delivered(),
            (std::vector<Delivery>{{111 * kMs, 1}, {141 * kMs, 2}}));
  EXPECT_EQ(pair.net().stats().drops_injected, 2u);
  EXPECT_EQ(pair.net().max_pending(), 1u);
  EXPECT_EQ(pair.net().pending(), 0u);
  if constexpr (obs::kMetricsEnabled) {
    EXPECT_EQ(CounterValue("proto.retransmits") - retransmits, 2u);
    EXPECT_EQ(CounterValue("proto.fast_retransmits") - fast, 0u);
  }
}

TEST(ReliableLinkTest, ExhaustedRetransmitsAbandonTheSendAfter63Rtos) {
  // B is down for good.  A resends at 100, 300, 700, 1500 and 3100 ms
  // and gives up at 6300 ms (63 RTOs), naming the peer and the phase;
  // nothing is left to run after that.
  FaultPlan plan;
  plan.crashes["B"].crash_at_us = 0;
  LinkPair pair(std::move(plan));
  pair.SendAt(0);
  EXPECT_EQ(pair.Run(), 63 * RttEstimator::kMinRtoUs);
  ASSERT_EQ(pair.abandoned().size(), 1u);
  const ReliableLink::Abandoned& send = pair.abandoned().front();
  EXPECT_EQ(pair.abandoned_at_us(), 63 * RttEstimator::kMinRtoUs);
  EXPECT_EQ(send.session, kSession);
  EXPECT_EQ(send.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(send.status.message(),
            "peer 'B' unreachable: no ack after 6 attempts during cover "
            "streaming of session 7");
  EXPECT_EQ(send.initiator, "A");
  EXPECT_EQ(send.timeout_us, 100 * kMs);
  EXPECT_EQ(send.max_retransmits, 5);
  EXPECT_TRUE(pair.delivered().empty());
  EXPECT_EQ(pair.net().pending(), 0u);
}

TEST(ReliableLinkTest, EndedSessionRunsNoLongerThanItsLastDelivery) {
  // B delivers seq 1 at 11 ms and its ack is lost.  B then ends the
  // session at A, on A's timeline; A cancels its timer, so the run ends
  // there instead of at the 100 ms retransmission.
  const uint64_t retransmits = CounterValue("proto.retransmits");
  LinkPair pair(Outage("B", "A", 10 * kMs + 500, 11 * kMs + 500));
  pair.OnDelivery([&pair] {
    ASSERT_TRUE(pair.net()
                    .sim()
                    .ScheduleTimer("A", 0,
                                   [&pair] { pair.a().EndSession(kSession); })
                    .ok());
  });
  pair.SendAt(0);
  EXPECT_EQ(pair.Run(), 11 * kMs);
  EXPECT_EQ(pair.delivered(), (std::vector<Delivery>{{11 * kMs, 1}}));
  EXPECT_EQ(pair.net().stats().drops_injected, 1u);
  EXPECT_EQ(pair.net().fired(), 0u);
  EXPECT_EQ(pair.net().pending(), 0u);
  if constexpr (obs::kMetricsEnabled) {
    EXPECT_EQ(CounterValue("proto.retransmits") - retransmits, 0u);
  }
}

TEST(ReliableLinkTest, ChannelWithManySendsInFlightHoldsOneTimer) {
  // Eight sends leave at 0-7 ms, all before the first ack returns
  // (22 ms), on a link warmed to a 40 ms PTO, so every send has both an
  // RTO deadline and a probe due.  The channel arms one timer for all of
  // them, never moves it, and cancels it when the last ack empties the
  // channel at 29 ms.  (A timer per send plus a probe timer would hold
  // nine.)
  constexpr int kSends = 8;
  LinkPair pair(FaultPlan{});
  pair.Warm(20 * kMs, 8);
  for (int i = 0; i < kSends; ++i) pair.SendAt(i * kMs);
  EXPECT_EQ(pair.Run(), 29 * kMs);
  ASSERT_EQ(pair.delivered().size(), static_cast<size_t>(kSends));
  EXPECT_EQ(pair.delivered().back(), (Delivery{18 * kMs, kSends}));
  EXPECT_EQ(pair.net().max_pending(), 1u);
  EXPECT_EQ(pair.net().armed(), 1u);
  EXPECT_EQ(pair.net().cancelled(), 1u);
  EXPECT_EQ(pair.net().fired(), 0u);
}

}  // namespace
}  // namespace hyperion
