// The cluster's request engine (cluster/call.h), its blocking waiter and
// the node's periodic timers (cluster/periodic.h), driven on
// SimNetwork's virtual clock: every timing below is exact and replays
// from scratch.
// The last test drives it through a real coordinator on TCP to check
// that Stop() releases a blocked Fetch.

#include "cluster/call.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/cluster_config.h"
#include "cluster/node.h"
#include "cluster/periodic.h"
#include "p2p/network.h"
#include "p2p/tcp_network.h"
#include "storage/table_store.h"

namespace hyperion {
namespace cluster {
namespace {

// One-way latency of every sim link.
constexpr int64_t kHop = 1'000;

class ClusterCallTest : public ::testing::Test {
 protected:
  ClusterCallTest() {
    SimNetwork::Options options;
    options.latency_us = kHop;
    options.us_per_byte = 0;
    options.per_message_overhead_us = 0;
    options.compute_scale = 0;
    net_ = std::make_unique<SimNetwork>(options);
    calls_ = std::make_unique<CallTable>("coord", net_.get());
    EXPECT_TRUE(net_->RegisterPeer("coord", [this](const Message& msg) {
                      const auto& ack = std::get<WriteAckMsg>(msg.payload);
                      if (!calls_->Deliver(ack.request_id, msg)) ++dropped_;
                    }).ok());
  }

  // A replica that answers every request `delay_us` after it arrives
  // (-1 = never), refusing (applied = 0) its first `refusals` requests.
  void AddReplica(const std::string& id, int64_t delay_us,
                  int refusals = 0) {
    auto seen = std::make_shared<int>(0);
    ASSERT_TRUE(
        net_->RegisterPeer(id, [this, id, delay_us, refusals,
                                seen](const Message& msg) {
              if (delay_us < 0) return;
              WriteAckMsg ack;
              ack.request_id = std::get<ShardFetchMsg>(msg.payload).request_id;
              ack.node = id;
              ack.applied = ++*seen > refusals ? 1 : 0;
              Message reply{id, "coord", ack};
              auto send = [this, reply] { ASSERT_TRUE(net_->Send(reply).ok()); };
              if (delay_us == 0) {
                send();
              } else {
                ASSERT_TRUE(net_->ScheduleTimer(id, delay_us, send).ok());
              }
            }).ok());
  }

  // A call over `candidates` that records its sends and its outcome.
  CallSpec Spec(std::vector<std::string> candidates) {
    CallSpec spec;
    spec.phase = "test call";
    spec.candidates = std::move(candidates);
    spec.attempt_timeout_us = 10'000;
    spec.request = [](uint64_t id, const std::string& peer) {
      ShardFetchMsg fetch;
      fetch.request_id = id;
      return Message{"coord", peer, fetch};
    };
    spec.on_attempt = [this](const CallAttempt& attempt) {
      sends_.push_back({net_->now_us(), attempt.peer, attempt.hedge});
    };
    spec.done = [this](CallOutcome out) {
      ++outcomes_;
      ended_at_ = net_->now_us();
      end_ = out.end;
      status_ = out.status;
      attempts_ = out.attempts;
      if (out.end == CallEnd::kReplied) {
        answered_by_ = std::get<WriteAckMsg>(out.reply.payload).node;
      }
    };
    return spec;
  }

  void Run() { ASSERT_TRUE(net_->Run().ok()); }

  struct Send {
    int64_t at_us;
    std::string peer;
    bool hedge;
    bool operator==(const Send& o) const {
      return at_us == o.at_us && peer == o.peer && hedge == o.hedge;
    }
  };

  std::unique_ptr<SimNetwork> net_;
  std::unique_ptr<CallTable> calls_;
  std::vector<Send> sends_;
  int dropped_ = 0;
  int outcomes_ = 0;
  int64_t ended_at_ = -1;
  CallEnd end_ = CallEnd::kAborted;
  Status status_;
  int attempts_ = 0;
  std::string answered_by_;
};

TEST_F(ClusterCallTest, ReroutesToTheNextCandidateAfterATimeout) {
  AddReplica("a", -1);
  AddReplica("b", 0);
  calls_->Start(Spec({"a", "b"}));
  Run();
  EXPECT_EQ(sends_, (std::vector<Send>{{0, "a", false}, {10'000, "b", false}}));
  EXPECT_EQ(end_, CallEnd::kReplied);
  EXPECT_EQ(answered_by_, "b");
  EXPECT_EQ(attempts_, 2);
  EXPECT_EQ(ended_at_, 10'000 + 2 * kHop);
  EXPECT_EQ(outcomes_, 1);
}

TEST_F(ClusterCallTest, BackoffDoublesBetweenRounds) {
  AddReplica("a", -1);
  AddReplica("b", -1);
  CallSpec spec = Spec({"a", "b"});
  spec.rounds = 3;
  spec.backoff_us = 5'000;
  calls_->Start(std::move(spec));
  Run();
  // Round 1 at 0 and 10 ms; 5 ms pause; round 2 at 25 and 35 ms; 10 ms
  // pause; round 3 at 55 and 65 ms; no pause after the last round.
  EXPECT_EQ(sends_, (std::vector<Send>{{0, "a", false},
                                       {10'000, "b", false},
                                       {25'000, "a", false},
                                       {35'000, "b", false},
                                       {55'000, "a", false},
                                       {65'000, "b", false}}));
  EXPECT_EQ(end_, CallEnd::kExhausted);
  EXPECT_EQ(ended_at_, 75'000);
}

TEST_F(ClusterCallTest, RefusedReplyFailsTheAttemptAndIsRetried) {
  AddReplica("a", 0, /*refusals=*/1);
  CallSpec spec = Spec({"a"});
  spec.rounds = 3;
  spec.backoff_us = 5'000;
  spec.accept = [](const Message& reply) {
    return std::get<WriteAckMsg>(reply.payload).applied != 0;
  };
  calls_->Start(std::move(spec));
  Run();
  // The refusal lands at 2 ms and ends round 1: back off 5 ms, ask again.
  EXPECT_EQ(sends_, (std::vector<Send>{{0, "a", false}, {7'000, "a", false}}));
  EXPECT_EQ(end_, CallEnd::kReplied);
  EXPECT_EQ(attempts_, 2);
  EXPECT_EQ(ended_at_, 7'000 + 2 * kHop);
}

TEST_F(ClusterCallTest, ExhaustionNamesEveryPeerTried) {
  AddReplica("a", -1);
  AddReplica("b", -1);
  AddReplica("c", -1);
  calls_->Start(Spec({"a", "b", "c"}));
  Run();
  EXPECT_EQ(end_, CallEnd::kExhausted);
  EXPECT_EQ(ended_at_, 30'000);
  EXPECT_EQ(status_.code(), StatusCode::kUnavailable);
  EXPECT_EQ(status_.message(),
            "test call exhausted after 3 attempts: tried 'a', 'b', 'c'");
}

TEST_F(ClusterCallTest, WholeCallDeadlineCutsRetriesShort) {
  AddReplica("a", -1);
  CallSpec spec = Spec({"a"});
  spec.rounds = 100;
  spec.deadline_us = 35'000;
  calls_->Start(std::move(spec));
  Run();
  EXPECT_EQ(end_, CallEnd::kDeadline);
  EXPECT_EQ(ended_at_, 35'000);
  EXPECT_EQ(attempts_, 4);  // at 0, 10, 20 and 30 ms
  EXPECT_EQ(status_.code(), StatusCode::kUnavailable);
  EXPECT_NE(status_.message().find("'a'"), std::string::npos) << status_;
}

TEST_F(ClusterCallTest, DeadlineEndsACallDuringItsBackoff) {
  AddReplica("a", -1);
  CallSpec spec = Spec({"a"});
  spec.rounds = 3;
  spec.backoff_us = 20'000;
  spec.deadline_us = 25'000;
  calls_->Start(std::move(spec));
  Run();
  // The first attempt fails at 10 ms; the next would wait until 30 ms.
  EXPECT_EQ(end_, CallEnd::kDeadline);
  EXPECT_EQ(ended_at_, 25'000);
  EXPECT_EQ(attempts_, 1);
}

TEST_F(ClusterCallTest, LateReplyToAnEarlierAttemptAnswersByDefault) {
  AddReplica("a", 15'000);  // answers after its attempt timed out
  AddReplica("b", -1);
  calls_->Start(Spec({"a", "b"}));
  Run();
  EXPECT_EQ(end_, CallEnd::kReplied);
  EXPECT_EQ(answered_by_, "a");
  EXPECT_EQ(ended_at_, 15'000 + 2 * kHop);
  EXPECT_EQ(dropped_, 0);
}

TEST_F(ClusterCallTest, LatestOnlyDropsTheSupersededReply) {
  AddReplica("a", 15'000);
  AddReplica("b", -1);
  CallSpec spec = Spec({"a", "b"});
  spec.latest_only = true;
  calls_->Start(std::move(spec));
  Run();
  // a's reply lands at 17 ms, after b's attempt replaced it: dropped (a
  // repair pull counts it in cluster.repair.ignored_replies); b then
  // times out.
  EXPECT_EQ(dropped_, 1);
  EXPECT_EQ(end_, CallEnd::kExhausted);
  EXPECT_EQ(ended_at_, 20'000);
}

TEST_F(ClusterCallTest, HedgeFiresAtItsDelayAndTheFirstReplyWins) {
  AddReplica("a", 20'000);  // slow
  AddReplica("b", 0);
  CallSpec spec = Spec({"a", "b"});
  spec.attempt_timeout_us = 100'000;
  spec.hedge_us = 5'000;
  calls_->Start(std::move(spec));
  Run();
  EXPECT_EQ(sends_, (std::vector<Send>{{0, "a", false}, {5'000, "b", true}}));
  EXPECT_EQ(end_, CallEnd::kReplied);
  EXPECT_EQ(answered_by_, "b");
  EXPECT_EQ(ended_at_, 5'000 + 2 * kHop);
  EXPECT_EQ(dropped_, 1);  // a's late reply, after the call ended
  EXPECT_EQ(outcomes_, 1);
}

TEST_F(ClusterCallTest, ZeroRoundsIsAPureTimer) {
  CallSpec spec = Spec({});
  spec.rounds = 0;
  spec.deadline_us = 7'000;
  calls_->Start(std::move(spec));
  Run();
  EXPECT_EQ(end_, CallEnd::kDeadline);
  EXPECT_EQ(ended_at_, 7'000);
  EXPECT_TRUE(sends_.empty());
}

TEST_F(ClusterCallTest, StopFailsLiveCallsAndAbortsLaterOnes) {
  AddReplica("a", -1);
  calls_->Start(Spec({"a"}));
  calls_->Stop();
  EXPECT_EQ(end_, CallEnd::kAborted);
  EXPECT_EQ(status_.code(), StatusCode::kUnavailable);
  EXPECT_EQ(status_.message(), "node 'coord' stopped during test call");
  calls_->Start(Spec({"a"}));
  EXPECT_EQ(outcomes_, 2);
  EXPECT_EQ(end_, CallEnd::kAborted);
  EXPECT_EQ(sends_.size(), 1u);  // the aborted call sent nothing
}

TEST_F(ClusterCallTest, RefusedTimerFailsTheCallLoudly) {
  AddReplica("a", -1);
  // "ghost" is no peer of the network, so it may send but not arm timers.
  CallTable ghost("ghost", net_.get());
  ghost.Start(Spec({"a"}));
  EXPECT_EQ(end_, CallEnd::kAborted);
  EXPECT_EQ(status_.code(), StatusCode::kUnavailable);
  EXPECT_NE(status_.message().find("node 'ghost' cannot arm a timer"),
            std::string::npos)
      << status_;
  EXPECT_NE(status_.message().find("during test call"), std::string::npos)
      << status_;
}

// A blocked caller on sim dispatches the simulation itself until its
// call ends, at the exact virtual time the reply lands.
TEST_F(ClusterCallTest, WaiterDispatchesTheSimulationUntilAnOutcome) {
  AddReplica("a", 0);
  auto waiter = calls_->Waiter(1);
  CallSpec spec = Spec({"a"});
  spec.done = CallWaiter::Recorder(waiter, 0);
  calls_->Start(std::move(spec));
  ASSERT_TRUE(waiter->Wait().ok());
  EXPECT_EQ(net_->now_us(), 2 * kHop);
  std::optional<CallOutcome> outcome = waiter->Take(0);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->end, CallEnd::kReplied);
  EXPECT_FALSE(waiter->Take(0).has_value());
}

// With nothing left to dispatch, no outcome can ever arrive: the wait
// fails instead of hanging.
TEST_F(ClusterCallTest, WaiterFailsWhenTheSimulationDrains) {
  auto waiter = calls_->Waiter(1);
  Status waited = waiter->Wait();
  EXPECT_EQ(waited.code(), StatusCode::kFailedPrecondition) << waited;
}

// The periods a node arms (heartbeat, sweep, repair) tick at exact
// multiples of their period on the node's timeline, and one Stop()
// cancels them all.
TEST_F(ClusterCallTest, PeriodicTimersTickOnTheVirtualClockUntilStopped) {
  ASSERT_TRUE(net_->RunUntil(nullptr, 100'000).ok());
  PeriodicTimers timers("coord", net_.get());
  std::vector<std::pair<int64_t, char>> ticks;
  const int64_t t0 = net_->now_us();
  timers.Every(5'000, [&] { ticks.push_back({net_->now_us() - t0, 'a'}); });
  timers.Every(3'000, [&] { ticks.push_back({net_->now_us() - t0, 'b'}); });
  // A sub-millisecond period is held to 1 ms.
  int fast = 0;
  timers.Every(10, [&] { ++fast; });
  EXPECT_TRUE(net_->RunUntil(nullptr, t0 + 10'000).ok());
  EXPECT_EQ(ticks, (std::vector<std::pair<int64_t, char>>{
                       {3'000, 'b'}, {5'000, 'a'}, {6'000, 'b'},
                       {9'000, 'b'}, {10'000, 'a'}}));
  EXPECT_EQ(fast, 10);
  timers.Stop();
  // Nothing is armed any more, so the simulation drains at once.
  auto end = net_->Run();
  ASSERT_TRUE(end.ok());
  EXPECT_EQ(end.value(), t0 + 10'000);
  EXPECT_EQ(ticks.size(), 5u);
}

// A tick that stops the timers (as a handler racing Stop() would) does
// not re-arm its own period.
TEST_F(ClusterCallTest, PeriodicTickThatStopsDoesNotRearm) {
  PeriodicTimers timers("coord", net_.get());
  int ticks = 0;
  timers.Every(2'000, [&] {
    ++ticks;
    timers.Stop();
  });
  auto end = net_->Run();
  ASSERT_TRUE(end.ok());
  EXPECT_EQ(ticks, 1);
  EXPECT_EQ(end.value(), 2'000);
}

// Stop() must release a Fetch blocked on a replica that never answers,
// instead of leaving it to wait out deadlines whose timers a stopped
// loop no longer fires.
TEST(ClusterCallStopTest, StopReleasesAFetchBlockedOnASilentReplica) {
  TcpNetwork silent;
  ASSERT_TRUE(silent.RegisterPeer("s1", [](const Message&) {}).ok());
  auto port = silent.ListenPort("s1");
  ASSERT_TRUE(port.ok());
  ASSERT_TRUE(silent.Start().ok());

  ClusterConfig config;
  config.shard_count = 1;
  config.replication = 1;
  config.fetch_timeout_ms = 60'000;
  config.replica_timeout_ms = 60'000;
  config.nodes = {{"coord", NodeRole::kCoordinator, "127.0.0.1", 0},
                  {"s1", NodeRole::kStorage, "127.0.0.1", port.value()}};
  auto coord = ClusterNode::Create(config, "coord", TableStore());
  ASSERT_TRUE(coord.ok()) << coord.status();
  ASSERT_TRUE(coord.value()->Bind().ok());
  ASSERT_TRUE(coord.value()->Start().ok());

  Result<VersionedTable> fetched = Status::Internal("fetch never returned");
  std::chrono::steady_clock::time_point returned;
  std::thread fetcher([&] {
    fetched = coord.value()->table_source()->Fetch("t");
    returned = std::chrono::steady_clock::now();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const auto stopped = std::chrono::steady_clock::now();
  coord.value()->Stop();
  fetcher.join();
  silent.Stop();

  EXPECT_LT(returned - stopped, std::chrono::milliseconds(100));
  ASSERT_FALSE(fetched.ok());
  EXPECT_EQ(fetched.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(fetched.status().message(),
            "node 'coord' stopped during shard fetch t#0");
}

}  // namespace
}  // namespace cluster
}  // namespace hyperion
