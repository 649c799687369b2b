// Cumulative acks, fast retransmit and session end (DESIGN.md §9).  The
// sim tests run a four-peer chain at exact virtual times and drop chosen
// messages with link outages; the service test runs lossy sessions on
// TcpNetwork, where each peer ends the session after the initiator's
// handler has returned.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "p2p/link_rtt.h"
#include "p2p/network.h"
#include "p2p/peer.h"
#include "service/catalogs.h"
#include "service/query_service.h"
#include "test_util.h"

namespace hyperion {
namespace {

constexpr int64_t kMs = 1'000;
constexpr int64_t kLatencyUs = 10 * kMs;
constexpr int64_t kOverheadUs = 1 * kMs;

uint64_t CounterValue(const char* name) {
  return obs::MetricRegistry::Default().GetCounter(name)->value();
}

// A chain A -> B -> C -> D, one three-row table per hop, on one
// SimNetwork with round numbers: 10 ms links, 1 ms per delivered message,
// no byte or compute charge.  With a cache of one row, C streams four
// batches to B at 22 ms (three rows, then EOS), and B forwards each to A
// 1 ms apart: seqs 1-4 leave B at 35, 36, 37 and 38 ms, reach A 10 ms
// later, and A acks each at 46-49 ms.  The EOS completes the session at
// A at 49 ms.
class ChainSession : public testing_util::SimChain {
 public:
  explicit ChainSession(FaultPlan plan)
      : SimChain(Options(kLatencyUs, kOverheadUs), std::move(plan)) {}
};

FaultPlan Outage(const std::string& from, const std::string& to,
                 int64_t start_us, int64_t end_us) {
  FaultPlan plan;
  plan.links[{from, to}].outages_us = {{start_us, end_us}};
  return plan;
}

TEST(CumulativeAckTest, DroppedMidStreamBatchIsResentOnTheHoleItLeaves) {
  // B's seq 2 toward A leaves at 36 ms, inside the outage.  A parks seq 3
  // at 47 ms and acks it with next_expected 2; that ack reaches B at
  // 58 ms, B resends seq 2 at once (arriving 69 ms), and A completes at
  // 70 ms.  B's retransmit timer (500 ms: no RTT sample yet) never fires.
  const uint64_t retransmits = CounterValue("proto.retransmits");
  const uint64_t fast = CounterValue("proto.fast_retransmits");
  ChainSession chain(Outage("B", "A", 35'500, 36'500));
  int64_t end_us = 0;
  const SessionResult* result = chain.Run(&end_us);
  ASSERT_NE(result, nullptr);
  ASSERT_TRUE(result->done);
  ASSERT_TRUE(result->error.ok()) << result->error;
  EXPECT_EQ(result->cover.size(), 3u);
  EXPECT_EQ(chain.net().stats().drops_injected, 1u);
  EXPECT_EQ(result->stats.complete_us, 70 * kMs);
  EXPECT_EQ(chain.net().stats().timers_fired, 0u);
  if constexpr (obs::kMetricsEnabled) {
    EXPECT_EQ(CounterValue("proto.retransmits") - retransmits, 1u);
    EXPECT_EQ(CounterValue("proto.fast_retransmits") - fast, 1u);
  }
}

TEST(CumulativeAckTest, LostAckIsCoveredByTheNextCumulativeAck) {
  // A's ack of seq 1 leaves at 46 ms, inside the outage.  The ack of
  // seq 2 says next_expected 3, which clears seq 1 at B too: nothing is
  // retransmitted, and the run ends as a loss-free one does, when B has
  // handled A's last ack (60 ms), not 500 ms later.
  const uint64_t retransmits = CounterValue("proto.retransmits");
  const uint64_t dups = CounterValue("net.duplicates_suppressed");
  ChainSession chain(Outage("A", "B", 45'500, 46'500));
  int64_t end_us = 0;
  const SessionResult* result = chain.Run(&end_us);
  ASSERT_NE(result, nullptr);
  ASSERT_TRUE(result->done);
  ASSERT_TRUE(result->error.ok()) << result->error;
  EXPECT_EQ(result->cover.size(), 3u);
  EXPECT_EQ(chain.net().stats().drops_injected, 1u);
  EXPECT_EQ(result->stats.complete_us, 49 * kMs);
  EXPECT_EQ(end_us, 60 * kMs);
  EXPECT_EQ(chain.net().stats().timers_fired, 0u);
  if constexpr (obs::kMetricsEnabled) {
    EXPECT_EQ(CounterValue("proto.retransmits") - retransmits, 0u);
    EXPECT_EQ(CounterValue("net.duplicates_suppressed") - dups, 0u);
  }
}

TEST(CumulativeAckTest, LostFinalAckNoLongerExtendsTheRun) {
  // A's ack of the EOS (seq 4) leaves at 49 ms, inside the outage, and
  // no later ack covers it.  Without session end, B would resend seq 4
  // when its 500 ms timer fired.  Ended at completion (49 ms), the run
  // stops when A's ack of seq 3 reaches B, one link latency later.  B
  // kept its send records, so the acks in flight at the end still give
  // B -> A its round-trip samples: 22 ms each (sent at 35-37 ms,
  // handled at 57-59 ms).
  const uint64_t retransmits = CounterValue("proto.retransmits");
  ChainSession chain(Outage("A", "B", 48'500, 49'500));
  chain.EndSessionsOnCompletion();
  int64_t end_us = 0;
  const SessionResult* result = chain.Run(&end_us);
  ASSERT_NE(result, nullptr);
  ASSERT_TRUE(result->done);
  ASSERT_TRUE(result->error.ok()) << result->error;
  EXPECT_EQ(chain.net().stats().drops_injected, 1u);
  EXPECT_EQ(result->stats.complete_us, 49 * kMs);
  EXPECT_LE(end_us, result->stats.complete_us + kLatencyUs);
  const RttEstimator& b_to_a = chain.link_rtt().Estimate("B", "A");
  ASSERT_TRUE(b_to_a.has_samples());
  EXPECT_EQ(b_to_a.srtt_us(), 22 * kMs);
  if constexpr (obs::kMetricsEnabled) {
    EXPECT_EQ(CounterValue("proto.retransmits") - retransmits, 0u);
  }
}

TEST(CumulativeAckTest, FailedSessionStopsEveryPeersRetransmits) {
  // Link B -> A goes down for good at 30 ms, so none of B's batches
  // reach A, and the initiator's 100 ms deadline fails the session.
  // Ended there, B drops its retransmit timers (due from 535 ms on) and
  // the run stops at the deadline.
  const uint64_t retransmits = CounterValue("proto.retransmits");
  ChainSession chain(Outage("B", "A", 30 * kMs, 3'600'000 * kMs));
  chain.EndSessionsOnCompletion();
  int64_t end_us = 0;
  const SessionResult* result = chain.Run(&end_us, 100 * kMs);
  ASSERT_NE(result, nullptr);
  ASSERT_TRUE(result->done);
  EXPECT_EQ(result->error.code(), StatusCode::kDeadlineExceeded)
      << result->error;
  EXPECT_EQ(chain.net().stats().drops_injected, 4u);
  EXPECT_EQ(end_us, 100 * kMs);
  if constexpr (obs::kMetricsEnabled) {
    EXPECT_EQ(CounterValue("proto.retransmits") - retransmits, 0u);
  }
}

// ---- lossy service sessions on real sockets --------------------------------

std::string CoverBytes(const QueryResponsePtr& r) {
  EXPECT_NE(r, nullptr);
  if (r == nullptr) return "";
  EXPECT_TRUE(r->status.ok()) << r->status;
  return r->status.ok() ? r->cover->Serialize() : "";
}

TEST(SessionEndServiceTest, LossyTcpSessionsMatchTheSimCover) {
  // Each TcpNetwork peer runs EndSession from its own zero-delay timer,
  // while frames of the session may still be in flight.  Under 10% loss
  // the sessions still produce the sim's cover bytes.
  BioConfig bio;
  bio.num_entities = 200;
  auto catalog = BuildBioCatalog(bio);
  ASSERT_TRUE(catalog.ok()) << catalog.status();
  QueryRequest req;
  req.path_peers = BioWorkload::HugoMimPaths().front();
  req.x_attrs = {Attribute::String("Hugo_id")};
  req.y_attrs = {Attribute::String("MIM_id")};
  req.options.cache_capacity = 16;
  // A 50 ms ceiling keeps the timer-recovered losses short on the wall
  // clock.
  req.options.retransmit_timeout_us = 50 * kMs;

  QueryServiceOptions sim_opts;
  sim_opts.num_workers = 1;
  sim_opts.cache_entries = 0;
  QueryService sim(catalog.value().store.get(), catalog.value().peers,
                   sim_opts);
  const std::string expected = CoverBytes(sim.Execute(req));
  ASSERT_FALSE(expected.empty());

  QueryServiceOptions opts = sim_opts;
  opts.transport = ServiceTransport::kTcp;
  opts.fault_plan.seed = 5;
  opts.fault_plan.default_link.drop_rate = 0.10;
  QueryService tcp(catalog.value().store.get(), catalog.value().peers, opts);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(CoverBytes(tcp.Execute(req)), expected) << "session " << i;
  }
}

}  // namespace
}  // namespace hyperion
