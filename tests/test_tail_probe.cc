// Tail-loss probes (DESIGN.md §9, p2p/link_rtt.h).  A four-peer chain
// runs on one SimNetwork at exact virtual times, with every link warmed
// to a 24 ms probe timeout first, and chosen messages dropped by link
// outages.  A lost message that no later one reveals is recovered one
// PTO plus one round trip after it left, not after the 100 ms RTO.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "p2p/link_rtt.h"
#include "p2p/network.h"
#include "p2p/peer.h"
#include "test_util.h"

namespace hyperion {
namespace {

constexpr int64_t kMs = 1'000;
constexpr int64_t kLatencyUs = 5 * kMs;
constexpr int64_t kOverheadUs = 1 * kMs;
// One loss-free round trip: 5 ms out, 1 ms to handle, 5 ms back, 1 ms to
// handle the ack.
constexpr int64_t kRttUs = 12 * kMs;
constexpr int kWarmSamples = 8;
// After eight 12 ms samples RTTVAR has decayed below 3 ms, so 2·max_recent
// sets the PTO: 24 ms.  The RTO is the 100 ms floor.
constexpr int64_t kPtoUs = 2 * kRttUs;

uint64_t CounterValue(const char* name) {
  return obs::MetricRegistry::Default().GetCounter(name)->value();
}

// Counter deltas over one test.
struct Counts {
  uint64_t retransmits = CounterValue("proto.retransmits");
  uint64_t fast = CounterValue("proto.fast_retransmits");
  uint64_t probes = CounterValue("proto.probes");

  uint64_t Retransmits() const {
    return CounterValue("proto.retransmits") - retransmits;
  }
  uint64_t TimerRetransmits() const {
    return Retransmits() - (CounterValue("proto.fast_retransmits") - fast);
  }
  uint64_t Probes() const { return CounterValue("proto.probes") - probes; }
};

RttEstimator WarmEstimator() {
  RttEstimator est;
  for (int i = 0; i < kWarmSamples; ++i) est.AddSample(kRttUs);
  return est;
}

// The chain A -> B -> C -> D, one three-row table per hop, on 5 ms links
// with 1 ms per delivered message and no byte or compute charge.  Loss
// free, A's init reaches B at 5 ms and C at 11 ms; C sends the plan to A
// and B and streams four batches (three rows, then EOS; a cache of one
// row) to B at 12 ms.  B forwards them to A at 20-23 ms, and the EOS
// completes the session at A at 29 ms.
//
// With `split` B's table toward C starts from a second attribute, B_x, so
// the plan has two partitions: A's own hop, and B-C-D, whose terminal
// peer B delivers its rows to A as FinalRows at 20-23 ms instead.
class TailChain : public testing_util::SimChain {
 public:
  explicit TailChain(FaultPlan plan, bool split = false,
                     SimNetwork::Options options = ChainOptions())
      : SimChain(std::move(options), std::move(plan), split) {
    WarmLinks(kRttUs, kWarmSamples);
  }

  static SimNetwork::Options ChainOptions() {
    return Options(kLatencyUs, kOverheadUs);
  }
};

FaultPlan Outages(const std::string& from, const std::string& to,
                  std::vector<std::pair<int64_t, int64_t>> windows) {
  FaultPlan plan;
  plan.links[{from, to}].outages_us = std::move(windows);
  return plan;
}

// A window around one departure instant.
std::pair<int64_t, int64_t> At(int64_t depart_us) {
  return {depart_us - 500, depart_us + 500};
}

// Runs `chain` and checks a successful cover of `rows` rows (three on
// the plain chain; the split plan's two partitions multiply to nine).
const SessionResult* RunOk(TailChain* chain, int64_t* end_us,
                           size_t rows = 3) {
  const SessionResult* result = chain->Run(end_us);
  EXPECT_NE(result, nullptr);
  if (result == nullptr) return nullptr;
  EXPECT_TRUE(result->done);
  EXPECT_TRUE(result->error.ok()) << result->error;
  EXPECT_EQ(result->cover.size(), rows);
  return result;
}

TEST(TailProbeTest, LossFreeChainSendsNoProbe) {
  // Every ack is back 12-17 ms after its send, inside the 24 ms PTO.
  Counts counts;
  TailChain chain(FaultPlan{});
  int64_t end_us = 0;
  const SessionResult* result = RunOk(&chain, &end_us);
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->stats.complete_us, 29 * kMs);
  if constexpr (obs::kMetricsEnabled) {
    EXPECT_EQ(counts.Probes(), 0u);
    EXPECT_EQ(counts.Retransmits(), 0u);
  }
}

TEST(TailProbeTest, LostInitIsRecoveredAtPtoPlusOneRoundTrip) {
  // A's init leaves at 0 and is lost.  A probes B at the PTO (24 ms); B
  // has never seen the channel and answers "next expected 1, missing"
  // (36 ms at A), so A resends at once: the whole session runs 36 ms
  // late, done at 65 ms, where the 100 ms RTO would finish at 129 ms.
  Counts counts;
  TailChain chain(Outages("A", "B", {At(0)}));
  int64_t end_us = 0;
  const SessionResult* result = RunOk(&chain, &end_us);
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(chain.net().stats().drops_injected, 1u);
  EXPECT_EQ(result->stats.complete_us, 29 * kMs + kPtoUs + kRttUs);
  if constexpr (obs::kMetricsEnabled) {
    EXPECT_EQ(counts.Probes(), 1u);
    EXPECT_EQ(counts.Retransmits(), 1u);
    EXPECT_EQ(counts.TimerRetransmits(), 0u);
  }
}

TEST(TailProbeTest, LostPlanIsRecoveredAtPtoPlusOneRoundTrip) {
  // C's plan to A leaves at 12 ms and is lost; the rows reach A by 29 ms
  // but wait for the plan.  C probes at 36 ms, its answer is back at
  // 48 ms, and the resent plan completes the session at 54 ms.
  Counts counts;
  TailChain chain(Outages("C", "A", {At(12 * kMs)}));
  int64_t end_us = 0;
  const SessionResult* result = RunOk(&chain, &end_us);
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(chain.net().stats().drops_injected, 1u);
  EXPECT_EQ(result->stats.complete_us,
            12 * kMs + kPtoUs + kRttUs + kLatencyUs + kOverheadUs);
  if constexpr (obs::kMetricsEnabled) {
    EXPECT_EQ(counts.Probes(), 1u);
    EXPECT_EQ(counts.Retransmits(), 1u);
    EXPECT_EQ(counts.TimerRetransmits(), 0u);
  }
}

TEST(TailProbeTest, LostLastBatchIsRecoveredAtPtoPlusOneRoundTrip) {
  // B's EOS batch (seq 4) leaves at 23 ms and is lost, and no later
  // batch reveals the hole.  B probes seq 4 at 47 ms; A holds seqs 1-3
  // and answers "next expected 4, missing" (59 ms at B); the resend
  // completes the session at 65 ms.
  Counts counts;
  TailChain chain(Outages("B", "A", {At(23 * kMs)}));
  int64_t end_us = 0;
  const SessionResult* result = RunOk(&chain, &end_us);
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(chain.net().stats().drops_injected, 1u);
  EXPECT_EQ(result->stats.complete_us, 29 * kMs + kPtoUs + kRttUs);
  if constexpr (obs::kMetricsEnabled) {
    EXPECT_EQ(counts.Probes(), 1u);
    EXPECT_EQ(counts.Retransmits(), 1u);
    EXPECT_EQ(counts.TimerRetransmits(), 0u);
  }
}

TEST(TailProbeTest, LostFinalRowsAreRecoveredAtPtoPlusOneRoundTrip) {
  // Split plan: B, the terminal peer of partition B-C-D, sends its EOS
  // FinalRows to A at 23 ms, and it is lost.  As with a batch, the probe
  // at 47 ms brings the resend, and A completes at 65 ms.
  Counts counts;
  TailChain loss_free(FaultPlan{}, /*split=*/true);
  int64_t end_us = 0;
  const SessionResult* reference = RunOk(&loss_free, &end_us, 9);
  ASSERT_NE(reference, nullptr);
  ASSERT_EQ(reference->partition_covers.size(), 2u);
  EXPECT_EQ(reference->stats.complete_us, 29 * kMs);
  // B's three rows and its EOS, each in its own FinalRows.
  EXPECT_EQ(loss_free.net().stats().messages_by_type.at("FinalRows"), 4u);

  TailChain chain(Outages("B", "A", {At(23 * kMs)}), /*split=*/true);
  const SessionResult* result = RunOk(&chain, &end_us, 9);
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(chain.net().stats().drops_injected, 1u);
  EXPECT_EQ(result->cover.Serialize(), reference->cover.Serialize());
  EXPECT_EQ(result->stats.complete_us, 29 * kMs + kPtoUs + kRttUs);
  if constexpr (obs::kMetricsEnabled) {
    EXPECT_EQ(counts.Probes(), 1u);
    EXPECT_EQ(counts.Retransmits(), 1u);
    EXPECT_EQ(counts.TimerRetransmits(), 0u);
  }
}

TEST(TailProbeTest, LostProbeIsFollowedByTheNextAtTwicePto) {
  // The EOS batch (23 ms) and the first probe (47 ms) are both lost.  The
  // second probe leaves 2·PTO later, at 95 ms, and the resend completes
  // the session at 113 ms, still before the RTO (123 ms) fires.
  Counts counts;
  TailChain chain(Outages("B", "A", {At(23 * kMs), At(47 * kMs)}));
  int64_t end_us = 0;
  const SessionResult* result = RunOk(&chain, &end_us);
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(chain.net().stats().drops_injected, 2u);
  EXPECT_EQ(result->stats.complete_us,
            23 * kMs + kPtoUs + 2 * kPtoUs + kRttUs + kLatencyUs +
                kOverheadUs);
  if constexpr (obs::kMetricsEnabled) {
    EXPECT_EQ(counts.Probes(), 2u);
    EXPECT_EQ(counts.Retransmits(), 1u);
    EXPECT_EQ(counts.TimerRetransmits(), 0u);
  }
}

TEST(TailProbeTest, LostProbeDrivenResendIsProbedAgain) {
  // The EOS batch (23 ms) and its probe-driven resend (59 ms) are both
  // lost.  The resend restarts the probe cycle: the next probe leaves one
  // PTO after it (83 ms), and the second resend completes the session at
  // 101 ms.
  Counts counts;
  TailChain chain(Outages("B", "A", {At(23 * kMs), At(59 * kMs)}));
  int64_t end_us = 0;
  const SessionResult* result = RunOk(&chain, &end_us);
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(chain.net().stats().drops_injected, 2u);
  EXPECT_EQ(result->stats.complete_us,
            59 * kMs + kPtoUs + kRttUs + kLatencyUs + kOverheadUs);
  if constexpr (obs::kMetricsEnabled) {
    EXPECT_EQ(counts.Probes(), 2u);
    EXPECT_EQ(counts.Retransmits(), 2u);
    EXPECT_EQ(counts.TimerRetransmits(), 0u);
  }
}

TEST(TailProbeTest, DuplicatedProbeGivesOneResend) {
  // Link B -> A duplicates every message, the probe included, and loses
  // the EOS batch (23 ms).  A answers both probe copies "missing"; the
  // first answer resends seq 4, and the second finds it sent after the
  // probe, so it resends nothing.
  Counts counts;
  FaultPlan plan = Outages("B", "A", {At(23 * kMs)});
  plan.links[{"B", "A"}].dup_rate = 1.0;
  TailChain chain(std::move(plan));
  int64_t end_us = 0;
  const SessionResult* result = RunOk(&chain, &end_us);
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(chain.net().stats().drops_injected, 1u);
  EXPECT_EQ(result->stats.complete_us, 29 * kMs + kPtoUs + kRttUs);
  if constexpr (obs::kMetricsEnabled) {
    EXPECT_EQ(counts.Probes(), 1u);
    EXPECT_EQ(counts.Retransmits(), 1u);
  }
}

TEST(TailProbeTest, CrashedPeerFailsAtTheRtoScheduleUnchanged) {
  // B is down for the whole run.  A's probes go unanswered and change
  // nothing: A's init is retransmitted at 100, 300, 700, 1500 and
  // 3100 ms, and the session fails at 6300 ms (63 RTOs), naming B.
  FaultPlan plan;
  plan.crashes["B"].crash_at_us = 0;
  TailChain chain(std::move(plan));
  Counts counts;
  int64_t end_us = 0;
  const SessionResult* result = chain.Run(&end_us);
  ASSERT_NE(result, nullptr);
  ASSERT_TRUE(result->done);
  EXPECT_EQ(result->error.code(), StatusCode::kUnavailable);
  EXPECT_EQ(result->error.message(),
            "peer 'B' unreachable: no ack after 6 attempts during "
            "information gathering of session " +
                std::to_string(chain.session()));
  EXPECT_EQ(result->stats.complete_us, 63 * RttEstimator::kMinRtoUs);
  EXPECT_EQ(end_us, 63 * RttEstimator::kMinRtoUs);
  if constexpr (obs::kMetricsEnabled) {
    EXPECT_EQ(counts.TimerRetransmits(), 5u);
    EXPECT_GT(counts.Probes(), 0u);
  }
}

TEST(TailProbeTest, EndedSessionSendsNoProbes) {
  // A's ack of the EOS (29 ms) is lost.  Without session end B would
  // probe seq 4 at 47 ms; ended at completion (29 ms), B sends nothing
  // more, and the run stops when A's ack of seq 3 reaches B (34 ms).
  Counts counts;
  TailChain chain(Outages("A", "B", {At(29 * kMs)}));
  chain.EndSessionsOnCompletion();
  int64_t end_us = 0;
  const SessionResult* result = RunOk(&chain, &end_us);
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(chain.net().stats().drops_injected, 1u);
  EXPECT_EQ(result->stats.complete_us, 29 * kMs);
  EXPECT_EQ(end_us, 34 * kMs);
  if constexpr (obs::kMetricsEnabled) {
    EXPECT_EQ(counts.Probes(), 0u);
    EXPECT_EQ(counts.Retransmits(), 0u);
  }
}

TEST(TailProbeTest, ProbeAnswerGivesNoRttSample) {
  // B's ack of A's init (6 ms) is lost.  A probes at 24 ms; B holds the
  // init and answers "held" (36 ms at A), which ends the send without a
  // round-trip sample: A -> B keeps exactly its warm-up samples.  Nothing
  // is resent.
  Counts counts;
  TailChain chain(Outages("B", "A", {At(6 * kMs)}));
  int64_t end_us = 0;
  const SessionResult* result = RunOk(&chain, &end_us);
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(chain.net().stats().drops_injected, 1u);
  EXPECT_EQ(result->stats.complete_us, 29 * kMs);
  const RttEstimator a_to_b = chain.link_rtt().Estimate("A", "B");
  const RttEstimator warm = WarmEstimator();
  EXPECT_EQ(a_to_b.srtt_us(), warm.srtt_us());
  EXPECT_EQ(a_to_b.rttvar_us(), warm.rttvar_us());
  if constexpr (obs::kMetricsEnabled) {
    EXPECT_EQ(counts.Probes(), 1u);
    EXPECT_EQ(counts.Retransmits(), 0u);
  }
}

TEST(TailProbeTest, ExactAckOfAProbedSendGivesASample) {
  // Acks from B to A take 30 ms, so the init's round trip is 37 ms: A
  // probes at 24 ms, before the ack is back.  A probe is no attempt, so
  // the init's own ack at 37 ms still gives a 37 ms sample.
  SimNetwork::Options options = TailChain::ChainOptions();
  options.link_latency_us[{"B", "A"}] = 30 * kMs;
  Counts counts;
  TailChain chain(FaultPlan{}, /*split=*/false, options);
  int64_t end_us = 0;
  const SessionResult* result = RunOk(&chain, &end_us);
  ASSERT_NE(result, nullptr);
  RttEstimator expected = WarmEstimator();
  expected.AddSample(37 * kMs);
  const RttEstimator a_to_b = chain.link_rtt().Estimate("A", "B");
  EXPECT_EQ(a_to_b.srtt_us(), expected.srtt_us());
  EXPECT_EQ(a_to_b.rttvar_us(), expected.rttvar_us());
  EXPECT_EQ(a_to_b.max_recent_us(), 37 * kMs);
  if constexpr (obs::kMetricsEnabled) {
    EXPECT_GE(counts.Probes(), 1u);
    EXPECT_EQ(counts.Retransmits(), 0u);
  }
}

}  // namespace
}  // namespace hyperion
