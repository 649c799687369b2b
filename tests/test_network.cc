#include "p2p/network.h"

#include <gtest/gtest.h>

#include <tuple>

#include "test_util.h"

namespace hyperion {
namespace {

PingMsg MakePing(uint64_t id) {
  PingMsg ping;
  ping.ping_id = id;
  ping.origin = "origin";
  ping.ttl = 1;
  return ping;
}

TEST(MessageTest, ByteSizeGrowsWithPayload) {
  Message small{"a", "b", MakePing(1)};
  CoverBatchMsg batch;
  batch.schema = Schema::Of({Attribute::String("A")});
  for (int i = 0; i < 100; ++i) {
    batch.rows.push_back(
        Mapping::FromTuple({Value("value" + std::to_string(i))}));
  }
  Message big{"a", "b", batch};
  EXPECT_GT(big.ByteSize(), small.ByteSize() + 500);
  EXPECT_STREQ(small.TypeName(), "Ping");
  EXPECT_STREQ(big.TypeName(), "CoverBatch");
}

TEST(MessageTest, MappingBytesReflectExclusions) {
  Mapping plain({Cell::Variable(0)});
  Mapping heavy({Cell::Variable(0, {Value("averylongexcludedvalue1"),
                                    Value("averylongexcludedvalue2")})});
  CoverBatchMsg batch;
  batch.rows = {plain};
  const size_t plain_bytes = Message{"a", "b", batch}.ByteSize();
  batch.rows = {heavy};
  // Each excluded string value: a type byte, a u32 length, 23 chars.
  const size_t heavy_bytes = Message{"a", "b", batch}.ByteSize();
  EXPECT_EQ(heavy_bytes, plain_bytes + 2 * 28);
}

TEST(SimNetworkTest, RegisterAndSendValidation) {
  SimNetwork net;
  EXPECT_TRUE(net.RegisterPeer("a", [](const Message&) {}).ok());
  EXPECT_FALSE(net.RegisterPeer("a", [](const Message&) {}).ok());
  EXPECT_FALSE(net.RegisterPeer("", [](const Message&) {}).ok());
  EXPECT_FALSE(net.Send(Message{"a", "nonexistent", MakePing(1)}).ok());
}

TEST(SimNetworkTest, DeliversInOrderAndCountsTraffic) {
  SimNetwork net;
  std::vector<uint64_t> received;
  ASSERT_TRUE(net.RegisterPeer("rx", [&](const Message& msg) {
                    received.push_back(std::get<PingMsg>(msg.payload).ping_id);
                  })
                  .ok());
  ASSERT_TRUE(net.RegisterPeer("tx", [](const Message&) {}).ok());
  for (uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(net.Send(Message{"tx", "rx", MakePing(i)}).ok());
  }
  auto end_time = net.Run();
  ASSERT_TRUE(end_time.ok());
  EXPECT_EQ(received, (std::vector<uint64_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(net.stats().messages_sent, 5u);
  EXPECT_GT(net.stats().bytes_sent, 0u);
  EXPECT_EQ(net.stats().messages_by_type.at("Ping"), 5u);
}

TEST(SimNetworkTest, LatencyAdvancesVirtualClock) {
  SimNetwork::Options opts;
  opts.latency_us = 1000;
  opts.us_per_byte = 0.0;
  SimNetwork net(opts);
  int64_t seen_at = -1;
  ASSERT_TRUE(net.RegisterPeer("rx", [&](const Message&) {
                    seen_at = net.now_us();
                  })
                  .ok());
  ASSERT_TRUE(net.RegisterPeer("tx", [](const Message&) {}).ok());
  ASSERT_TRUE(net.Send(Message{"tx", "rx", MakePing(1)}).ok());
  auto end_time = net.Run();
  ASSERT_TRUE(end_time.ok());
  EXPECT_GE(seen_at, 1000);
  EXPECT_GE(end_time.value(), 1000);
}

TEST(SimNetworkTest, PerLinkLatencyOverrides) {
  SimNetwork::Options opts;
  opts.latency_us = 100;
  opts.us_per_byte = 0.0;
  opts.per_message_overhead_us = 0;
  opts.link_latency_us[{"tx", "slow"}] = 50'000;  // transatlantic
  SimNetwork net(opts);
  int64_t fast_at = -1;
  int64_t slow_at = -1;
  ASSERT_TRUE(net.RegisterPeer("fast", [&](const Message&) {
                    fast_at = net.now_us();
                  })
                  .ok());
  ASSERT_TRUE(net.RegisterPeer("slow", [&](const Message&) {
                    slow_at = net.now_us();
                  })
                  .ok());
  ASSERT_TRUE(net.RegisterPeer("tx", [](const Message&) {}).ok());
  ASSERT_TRUE(net.Send(Message{"tx", "fast", MakePing(1)}).ok());
  ASSERT_TRUE(net.Send(Message{"tx", "slow", MakePing(2)}).ok());
  ASSERT_TRUE(net.Run().ok());
  EXPECT_LT(fast_at, 1000);
  EXPECT_GE(slow_at, 50'000);
}

TEST(SimNetworkTest, ChargeComputeDelaysSubsequentSends) {
  SimNetwork::Options opts;
  opts.latency_us = 100;
  opts.us_per_byte = 0.0;
  SimNetwork net(opts);
  int64_t relay_sent_at = -1;
  int64_t final_seen_at = -1;
  ASSERT_TRUE(net.RegisterPeer("relay", [&](const Message& msg) {
                    net.ChargeCompute(5000);  // model heavy local work
                    relay_sent_at = net.now_us();
                    Message fwd{"relay", "sink", msg.payload};
                    ASSERT_TRUE(net.Send(std::move(fwd)).ok());
                  })
                  .ok());
  ASSERT_TRUE(net.RegisterPeer("sink", [&](const Message&) {
                    final_seen_at = net.now_us();
                  })
                  .ok());
  ASSERT_TRUE(net.RegisterPeer("src", [](const Message&) {}).ok());
  ASSERT_TRUE(net.Send(Message{"src", "relay", MakePing(1)}).ok());
  ASSERT_TRUE(net.Run().ok());
  // relay received at ~100, charged 5000, forwarded at >= 5100, sink saw
  // it after another 100 of latency.
  EXPECT_GE(relay_sent_at, 5100);
  EXPECT_GE(final_seen_at, 5200);
}

TEST(SimNetworkTest, PerLinkFifoPreserved) {
  SimNetwork::Options opts;
  opts.latency_us = 10;
  opts.us_per_byte = 100.0;  // big per-byte cost: big messages are slow
  SimNetwork net(opts);
  std::vector<uint64_t> order;
  ASSERT_TRUE(net.RegisterPeer("rx", [&](const Message& msg) {
                    if (const auto* batch =
                            std::get_if<CoverBatchMsg>(&msg.payload)) {
                      order.push_back(batch->session);
                    } else {
                      order.push_back(999);
                    }
                  })
                  .ok());
  ASSERT_TRUE(net.RegisterPeer("tx", [](const Message&) {}).ok());
  // First message is large (slow), second small (fast): FIFO must hold.
  CoverBatchMsg big;
  big.session = 1;
  big.schema = Schema::Of({Attribute::String("A")});
  for (int i = 0; i < 200; ++i) {
    big.rows.push_back(Mapping::FromTuple({Value("padding-padding")}));
  }
  ASSERT_TRUE(net.Send(Message{"tx", "rx", big}).ok());
  ASSERT_TRUE(net.Send(Message{"tx", "rx", MakePing(2)}).ok());
  ASSERT_TRUE(net.Run().ok());
  EXPECT_EQ(order, (std::vector<uint64_t>{1, 999}));
}

TEST(SimNetworkTest, BusyPeerSerializesHandlers) {
  SimNetwork::Options opts;
  opts.latency_us = 0;
  opts.us_per_byte = 0.0;
  SimNetwork net(opts);
  std::vector<int64_t> starts;
  ASSERT_TRUE(net.RegisterPeer("rx", [&](const Message&) {
                    starts.push_back(net.now_us());
                    net.ChargeCompute(1000);
                  })
                  .ok());
  ASSERT_TRUE(net.RegisterPeer("tx", [](const Message&) {}).ok());
  ASSERT_TRUE(net.Send(Message{"tx", "rx", MakePing(1)}).ok());
  ASSERT_TRUE(net.Send(Message{"tx", "rx", MakePing(2)}).ok());
  ASSERT_TRUE(net.Run().ok());
  ASSERT_EQ(starts.size(), 2u);
  // Second handler cannot start before the first one's 1000us of work end.
  EXPECT_GE(starts[1], starts[0] + 1000);
}

TEST(SimNetworkTest, TimersFireInDelayOrderOnVirtualClock) {
  SimNetwork net;
  ASSERT_TRUE(net.RegisterPeer("a", [](const Message&) {}).ok());
  std::vector<int> order;
  int64_t first_fired_at = -1;
  auto late = net.ScheduleTimer("a", 2000, [&] { order.push_back(2); });
  auto early = net.ScheduleTimer("a", 1000, [&] {
    order.push_back(1);
    first_fired_at = net.now_us();
  });
  ASSERT_TRUE(late.ok());
  ASSERT_TRUE(early.ok());
  auto end_time = net.Run();
  ASSERT_TRUE(end_time.ok());
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_GE(first_fired_at, 1000);
  EXPECT_LT(first_fired_at, 2000);
  EXPECT_EQ(net.stats().timers_fired, 2u);
}

TEST(SimNetworkTest, TimerValidation) {
  SimNetwork net;
  ASSERT_TRUE(net.RegisterPeer("a", [](const Message&) {}).ok());
  EXPECT_FALSE(net.ScheduleTimer("nobody", 100, [] {}).ok());
  EXPECT_FALSE(net.ScheduleTimer("a", -1, [] {}).ok());
}

TEST(SimNetworkTest, CancelledTimerNeverFires) {
  SimNetwork net;
  ASSERT_TRUE(net.RegisterPeer("a", [](const Message&) {}).ok());
  bool cancelled_fired = false;
  bool kept_fired = false;
  auto doomed = net.ScheduleTimer("a", 1000, [&] { cancelled_fired = true; });
  auto kept = net.ScheduleTimer("a", 2000, [&] { kept_fired = true; });
  ASSERT_TRUE(doomed.ok());
  ASSERT_TRUE(kept.ok());
  net.CancelTimer(doomed.value());
  ASSERT_TRUE(net.Run().ok());
  EXPECT_FALSE(cancelled_fired);
  EXPECT_TRUE(kept_fired);
  EXPECT_EQ(net.stats().timers_fired, 1u);
  net.CancelTimer(kept.value());  // after firing: a no-op, not a crash
}

TEST(SimNetworkTest, TimerCallbackRunsOnPeerTimelineAndCanSend) {
  SimNetwork::Options opts;
  opts.latency_us = 100;
  opts.us_per_byte = 0.0;
  SimNetwork net(opts);
  int64_t seen_at = -1;
  ASSERT_TRUE(net.RegisterPeer("rx", [&](const Message&) {
                    seen_at = net.now_us();
                  })
                  .ok());
  ASSERT_TRUE(net.RegisterPeer("tx", [](const Message&) {}).ok());
  ASSERT_TRUE(net.ScheduleTimer("tx", 5000, [&] {
                    ASSERT_TRUE(
                        net.Send(Message{"tx", "rx", MakePing(1)}).ok());
                  })
                  .ok());
  ASSERT_TRUE(net.Run().ok());
  // Sent from the timer at t=5000 plus 100us of link latency.
  EXPECT_GE(seen_at, 5100);
}

TEST(SimNetworkTest, FaultPlanDropsAndDuplicatesDeterministically) {
  auto run_once = [](uint64_t seed) {
    SimNetwork net;
    int received = 0;
    EXPECT_TRUE(
        net.RegisterPeer("rx", [&](const Message&) { ++received; }).ok());
    EXPECT_TRUE(net.RegisterPeer("tx", [](const Message&) {}).ok());
    FaultPlan plan;
    plan.seed = seed;
    plan.default_link.drop_rate = 0.3;
    plan.default_link.dup_rate = 0.3;
    net.SetFaultPlan(plan);
    for (uint64_t i = 0; i < 50; ++i) {
      EXPECT_TRUE(net.Send(Message{"tx", "rx", MakePing(i)}).ok());
    }
    EXPECT_TRUE(net.Run().ok());
    NetworkStats stats = net.stats();
    return std::tuple<int, uint64_t, uint64_t>{received, stats.drops_injected,
                                               stats.duplicates_injected};
  };
  auto [received, drops, dups] = run_once(7);
  EXPECT_GT(drops, 0u);
  EXPECT_GT(dups, 0u);
  // Every copy is either dropped or delivered.
  EXPECT_EQ(static_cast<uint64_t>(received), 50 + dups - drops);
  EXPECT_EQ(run_once(7), run_once(7));
}

TEST(SimNetworkTest, ScriptedOutageDropsOnlyDeparturesInsideWindow) {
  SimNetwork::Options opts;
  opts.latency_us = 100;
  opts.us_per_byte = 0.0;
  SimNetwork net(opts);
  int received = 0;
  ASSERT_TRUE(
      net.RegisterPeer("rx", [&](const Message&) { ++received; }).ok());
  ASSERT_TRUE(net.RegisterPeer("tx", [](const Message&) {}).ok());
  FaultPlan plan;
  plan.default_link.outages_us.push_back({0, 5000});
  net.SetFaultPlan(plan);
  ASSERT_TRUE(net.Send(Message{"tx", "rx", MakePing(1)}).ok());  // t=0: down
  ASSERT_TRUE(net.ScheduleTimer("tx", 10'000, [&] {              // t=10ms: up
                    ASSERT_TRUE(
                        net.Send(Message{"tx", "rx", MakePing(2)}).ok());
                  })
                  .ok());
  ASSERT_TRUE(net.Run().ok());
  EXPECT_EQ(received, 1);
  EXPECT_EQ(net.stats().drops_injected, 1u);
}

TEST(SimNetworkTest, CrashWindowDiscardsDeliveriesAndTimersUntilRestart) {
  SimNetwork::Options opts;
  opts.latency_us = 100;
  opts.us_per_byte = 0.0;
  SimNetwork net(opts);
  int received = 0;
  bool dead_timer_fired = false;
  ASSERT_TRUE(
      net.RegisterPeer("rx", [&](const Message&) { ++received; }).ok());
  ASSERT_TRUE(net.RegisterPeer("tx", [](const Message&) {}).ok());
  FaultPlan plan;
  plan.crashes["rx"] = {0, 50'000};  // down for the first 50ms
  net.SetFaultPlan(plan);
  // Arrives at ~100us, inside the window: discarded.
  ASSERT_TRUE(net.Send(Message{"tx", "rx", MakePing(1)}).ok());
  // A timer on the crashed peer is discarded too.
  ASSERT_TRUE(net.ScheduleTimer("rx", 1000, [&] {
                    dead_timer_fired = true;
                  })
                  .ok());
  // Sent after the restart: delivered.
  ASSERT_TRUE(net.ScheduleTimer("tx", 60'000, [&] {
                    ASSERT_TRUE(
                        net.Send(Message{"tx", "rx", MakePing(2)}).ok());
                  })
                  .ok());
  ASSERT_TRUE(net.Run().ok());
  EXPECT_EQ(received, 1);
  EXPECT_FALSE(dead_timer_fired);
  EXPECT_EQ(net.stats().crash_discards, 2u);
}

// A timer that re-arms forever: Run() would never return, RunUntil
// stops at the predicate or the deadline.
void Tick(SimNetwork& net, int* ticks) {
  ASSERT_TRUE(net.ScheduleTimer("a", 1000, [&net, ticks] {
                    ++*ticks;
                    Tick(net, ticks);
                  })
                  .ok());
}

// No compute charge: the timelines are exact.
SimNetwork Exact() {
  return SimNetwork(testing_util::SimChain::Options(100, 0));
}

TEST(SimNetworkTest, RunUntilStopsAtThePredicate) {
  SimNetwork net = Exact();
  ASSERT_TRUE(net.RegisterPeer("a", [](const Message&) {}).ok());
  int ticks = 0;
  Tick(net, &ticks);
  auto done = net.RunUntil([&] { return ticks == 3; }, 1'000'000);
  ASSERT_TRUE(done.ok()) << done.status();
  EXPECT_TRUE(done.value());
  EXPECT_EQ(ticks, 3);
  EXPECT_EQ(net.now_us(), 3000);
  // Already true: nothing runs.
  done = net.RunUntil([&] { return ticks == 3; }, 1'000'000);
  ASSERT_TRUE(done.ok());
  EXPECT_TRUE(done.value());
  EXPECT_EQ(net.now_us(), 3000);
}

TEST(SimNetworkTest, RunUntilDeadlineLeavesTheClockAtTheDeadline) {
  SimNetwork net = Exact();
  ASSERT_TRUE(net.RegisterPeer("a", [](const Message&) {}).ok());
  int ticks = 0;
  Tick(net, &ticks);
  auto done = net.RunUntil(nullptr, 4500);
  ASSERT_TRUE(done.ok()) << done.status();
  EXPECT_FALSE(done.value());
  EXPECT_EQ(ticks, 4);
  EXPECT_EQ(net.now_us(), 4500);
  // An event due exactly at the deadline runs.
  done = net.RunUntil(nullptr, 5000);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(ticks, 5);
  EXPECT_EQ(net.now_us(), 5000);
}

TEST(SimNetworkTest, RunUntilReportsADrainedQueue) {
  SimNetwork net = Exact();
  ASSERT_TRUE(net.RegisterPeer("a", [](const Message&) {}).ok());
  bool fired = false;
  ASSERT_TRUE(net.ScheduleTimer("a", 1000, [&] { fired = true; }).ok());
  auto done = net.RunUntil([] { return false; }, SimNetwork::kNoDeadline);
  ASSERT_TRUE(done.ok());
  EXPECT_FALSE(done.value());
  EXPECT_TRUE(fired);
  EXPECT_EQ(net.now_us(), 1000);
  // Await has nothing left that could make its predicate hold.
  Status waited = net.Await([] { return false; }, [] { FAIL(); });
  EXPECT_EQ(waited.code(), StatusCode::kFailedPrecondition) << waited;
}

TEST(SimNetworkTest, AwaitDispatchesOnTheCallersThread) {
  SimNetwork net = Exact();
  int received = 0;
  ASSERT_TRUE(
      net.RegisterPeer("rx", [&](const Message&) { ++received; }).ok());
  ASSERT_TRUE(net.RegisterPeer("tx", [](const Message&) {}).ok());
  ASSERT_TRUE(net.Send(Message{"tx", "rx", MakePing(1)}).ok());
  ASSERT_TRUE(net.Send(Message{"tx", "rx", MakePing(2)}).ok());
  bool blocked = false;
  Status waited =
      net.Await([&] { return received == 1; }, [&] { blocked = true; });
  ASSERT_TRUE(waited.ok()) << waited;
  EXPECT_FALSE(blocked);
  EXPECT_EQ(received, 1);
  // The second ping is still queued for the next pump.
  ASSERT_TRUE(net.Run().ok());
  EXPECT_EQ(received, 2);
}

TEST(SimNetworkTest, PumpFromInsideAHandlerFailsInsteadOfRecursing) {
  SimNetwork net;
  Status nested;
  Status awaited;
  ASSERT_TRUE(net.RegisterPeer("a", [](const Message&) {}).ok());
  ASSERT_TRUE(net.ScheduleTimer("a", 1000, [&] {
                    nested = net.RunUntil(nullptr, 2000).status();
                    awaited = net.Await([] { return true; }, [] {});
                  })
                  .ok());
  ASSERT_TRUE(net.Run().ok());
  EXPECT_EQ(nested.code(), StatusCode::kFailedPrecondition) << nested;
  EXPECT_NE(nested.message().find("'a'"), std::string::npos) << nested;
  EXPECT_EQ(awaited.code(), StatusCode::kFailedPrecondition) << awaited;
}

}  // namespace
}  // namespace hyperion
