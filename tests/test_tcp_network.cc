// TcpNetwork behavior: frames over real loopback sockets must honor the
// whole Network contract — delivery and stats, sends from handlers,
// repeatable runs, wall-clock timers, fault injection, crash windows —
// plus the TCP-only surface: listener ports, cross-instance frames via
// remote_peers, reconnect backoff, hostile byte streams, and shutdown
// with traffic still in flight.

#include "p2p/tcp_network.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/synchronization.h"

#include "core/containment.h"
#include "p2p/network.h"
#include "p2p/peer.h"
#include "p2p/wire.h"
#include "workload/b2b_network.h"
#include "workload/bio_network.h"

namespace hyperion {
namespace {

TEST(TcpNetworkTest, BasicDeliveryAndStats) {
  TcpNetwork net;
  std::atomic<int> received{0};
  ASSERT_TRUE(
      net.RegisterPeer("rx", [&](const Message&) { ++received; }).ok());
  ASSERT_TRUE(net.RegisterPeer("tx", [](const Message&) {}).ok());
  EXPECT_FALSE(net.RegisterPeer("rx", [](const Message&) {}).ok());
  EXPECT_FALSE(net.RegisterPeer("", [](const Message&) {}).ok());
  ASSERT_TRUE(net.ListenPort("rx").ok());
  EXPECT_GT(net.ListenPort("rx").value(), 0);
  PingMsg ping;
  ping.origin = "tx";
  for (int i = 0; i < 10; ++i) {
    ping.ping_id = static_cast<uint64_t>(i);
    ASSERT_TRUE(net.Send(Message{"tx", "rx", ping}).ok());
  }
  EXPECT_FALSE(net.Send(Message{"tx", "nobody", ping}).ok());
  ASSERT_TRUE(net.Run().ok());
  EXPECT_EQ(received.load(), 10);
  EXPECT_EQ(net.stats().messages_sent, 10u);
  EXPECT_GT(net.stats().bytes_sent, 0u);
  TcpStats tcp = net.tcp_stats();
  EXPECT_GE(tcp.connects, 1u);
  EXPECT_EQ(tcp.frames_sent, 10u);
  EXPECT_EQ(tcp.frames_received, 10u);
  EXPECT_GT(tcp.bytes_sent, 0u);
  EXPECT_EQ(tcp.bytes_sent, tcp.bytes_received);
}

TEST(TcpNetworkTest, HandlersCanSendMore) {
  TcpNetwork net;
  std::atomic<int> hops{0};
  auto relay = [&](const std::string& self, const std::string& other) {
    return [&, self, other](const Message& msg) {
      const auto& ping = std::get<PingMsg>(msg.payload);
      ++hops;
      if (ping.ttl > 0) {
        PingMsg next = ping;
        next.ttl -= 1;
        ASSERT_TRUE(net.Send(Message{self, other, next}).ok());
      }
    };
  };
  ASSERT_TRUE(net.RegisterPeer("a", relay("a", "b")).ok());
  ASSERT_TRUE(net.RegisterPeer("b", relay("b", "a")).ok());
  PingMsg ping;
  ping.ttl = 19;
  ASSERT_TRUE(net.Send(Message{"a", "b", ping}).ok());
  ASSERT_TRUE(net.Run().ok());
  EXPECT_EQ(hops.load(), 20);
}

TEST(TcpNetworkTest, RunIsRepeatable) {
  TcpNetwork net;
  std::atomic<int> received{0};
  ASSERT_TRUE(
      net.RegisterPeer("rx", [&](const Message&) { ++received; }).ok());
  ASSERT_TRUE(net.RegisterPeer("tx", [](const Message&) {}).ok());
  PingMsg ping;
  ASSERT_TRUE(net.Send(Message{"tx", "rx", ping}).ok());
  ASSERT_TRUE(net.Run().ok());
  EXPECT_EQ(received.load(), 1);
  ASSERT_TRUE(net.Send(Message{"tx", "rx", ping}).ok());
  ASSERT_TRUE(net.Run().ok());
  EXPECT_EQ(received.load(), 2);
}

TEST(TcpNetworkTest, TimersFireAndCancelOnWallClock) {
  TcpNetwork net;
  ASSERT_TRUE(net.RegisterPeer("a", [](const Message&) {}).ok());
  std::atomic<bool> fired{false};
  std::atomic<bool> cancelled_fired{false};
  auto kept = net.ScheduleTimer("a", 2000, [&] { fired = true; });
  auto doomed = net.ScheduleTimer("a", 2000, [&] { cancelled_fired = true; });
  ASSERT_TRUE(kept.ok());
  ASSERT_TRUE(doomed.ok());
  net.CancelTimer(doomed.value());
  EXPECT_FALSE(net.ScheduleTimer("nobody", 1, [] {}).ok());
  EXPECT_FALSE(net.ScheduleTimer("a", -1, [] {}).ok());
  ASSERT_TRUE(net.Run().ok());
  EXPECT_TRUE(fired.load());
  EXPECT_FALSE(cancelled_fired.load());
  EXPECT_EQ(net.stats().timers_fired, 1u);
}

TEST(TcpNetworkTest, TimerCallbacksCanSend) {
  TcpNetwork net;
  std::atomic<int> received{0};
  ASSERT_TRUE(
      net.RegisterPeer("rx", [&](const Message&) { ++received; }).ok());
  ASSERT_TRUE(net.RegisterPeer("tx", [](const Message&) {}).ok());
  ASSERT_TRUE(net.ScheduleTimer("tx", 1000, [&] {
                    PingMsg ping;
                    ASSERT_TRUE(net.Send(Message{"tx", "rx", ping}).ok());
                  }).ok());
  ASSERT_TRUE(net.Run().ok());
  EXPECT_EQ(received.load(), 1);
}

TEST(TcpNetworkTest, FaultPlanDropsAndDuplicates) {
  TcpNetwork net;
  std::atomic<int> received{0};
  ASSERT_TRUE(
      net.RegisterPeer("rx", [&](const Message&) { ++received; }).ok());
  ASSERT_TRUE(net.RegisterPeer("tx", [](const Message&) {}).ok());
  FaultPlan plan;
  plan.default_link.drop_rate = 0.5;
  plan.default_link.dup_rate = 0.3;
  plan.default_link.delay_jitter_us = 500;
  plan.seed = 7;
  net.SetFaultPlan(plan);
  PingMsg ping;
  const int kSends = 200;
  for (int i = 0; i < kSends; ++i) {
    ASSERT_TRUE(net.Send(Message{"tx", "rx", ping}).ok());
  }
  ASSERT_TRUE(net.Run().ok());
  NetworkStats stats = net.stats();
  EXPECT_GT(stats.drops_injected, 0u);
  EXPECT_GT(stats.duplicates_injected, 0u);
  EXPECT_EQ(static_cast<uint64_t>(received.load()),
            kSends - stats.drops_injected + stats.duplicates_injected);
}

TEST(TcpNetworkTest, CrashWindowDiscardsDeliveriesAndTimers) {
  TcpNetwork net;
  std::atomic<int> received{0};
  std::atomic<bool> timer_ran{false};
  ASSERT_TRUE(
      net.RegisterPeer("down", [&](const Message&) { ++received; }).ok());
  ASSERT_TRUE(net.RegisterPeer("up", [](const Message&) {}).ok());
  FaultPlan plan;
  plan.crashes["down"] = {0, -1};  // down forever
  net.SetFaultPlan(plan);
  PingMsg ping;
  ASSERT_TRUE(net.Send(Message{"up", "down", ping}).ok());
  ASSERT_TRUE(
      net.ScheduleTimer("down", 100, [&] { timer_ran = true; }).ok());
  ASSERT_TRUE(net.Run().ok());
  EXPECT_EQ(received.load(), 0);
  EXPECT_FALSE(timer_ran.load());
  EXPECT_EQ(net.stats().crash_discards, 2u);
}

TEST(TcpNetworkTest, TwoInstancesExchangeFramesOverLoopback) {
  // Instance A hosts "a"; instance B hosts "b".  Each names the other
  // via remote_peers, so every frame crosses two genuinely separate
  // event loops — the deployment shape, minus the second machine.
  TcpNetwork net_a;
  TcpNetwork net_b;
  Mutex mu;
  std::vector<uint64_t> b_got;  // guarded by mu (locals can't be annotated)
  std::atomic<int> a_got{0};
  ASSERT_TRUE(net_a.RegisterPeer("a", [&](const Message&) { ++a_got; }).ok());
  ASSERT_TRUE(net_b.RegisterPeer("b", [&](const Message& msg) {
                     {
                       MutexLock lock(mu);
                       b_got.push_back(std::get<PingMsg>(msg.payload).ping_id);
                     }
                     PongMsg pong;
                     pong.ping_id = std::get<PingMsg>(msg.payload).ping_id;
                     ASSERT_TRUE(net_b.Send(Message{"b", "a", pong}).ok());
                   }).ok());
  uint16_t port_a = net_a.ListenPort("a").value();
  uint16_t port_b = net_b.ListenPort("b").value();
  net_a.SetRemotePeer("b", "127.0.0.1:" + std::to_string(port_b));
  net_b.SetRemotePeer("a", "127.0.0.1:" + std::to_string(port_a));
  ASSERT_TRUE(net_a.Start().ok());
  ASSERT_TRUE(net_b.Start().ok());
  const int kPings = 25;
  for (int i = 0; i < kPings; ++i) {
    PingMsg ping;
    ping.ping_id = static_cast<uint64_t>(i);
    ASSERT_TRUE(net_a.Send(Message{"a", "b", ping}).ok());
  }
  EXPECT_TRUE(net_a.RunUntil([&] { return a_got.load() == kPings; },
                             10'000'000));
  net_a.Stop();
  net_b.Stop();
  EXPECT_EQ(a_got.load(), kPings);
  MutexLock lock(mu);
  ASSERT_EQ(b_got.size(), static_cast<size_t>(kPings));
  // TCP preserves per-connection frame order.
  for (int i = 0; i < kPings; ++i) {
    EXPECT_EQ(b_got[i], static_cast<uint64_t>(i));
  }
  EXPECT_GE(net_a.tcp_stats().connects, 1u);
  EXPECT_GE(net_b.tcp_stats().connects, 1u);
}

TEST(TcpNetworkTest, UnreachableRemoteAbandonsFramesAfterRetries) {
  // Point "ghost" at a port nobody listens on: after
  // max_connect_attempts the staged frames must be abandoned (counted
  // as connect failures) instead of hanging quiescence forever.
  TcpNetwork::Options options;
  options.reconnect_backoff_us = 1'000;
  options.max_reconnect_backoff_us = 5'000;
  options.max_connect_attempts = 3;
  TcpNetwork net(options);
  ASSERT_TRUE(net.RegisterPeer("tx", [](const Message&) {}).ok());
  // Grab a port that is free right now by binding and closing it.
  int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  uint16_t dead_port = ntohs(addr.sin_port);
  ::close(probe);
  net.SetRemotePeer("ghost", "127.0.0.1:" + std::to_string(dead_port));
  PingMsg ping;
  ASSERT_TRUE(net.Send(Message{"tx", "ghost", ping}).ok());
  ASSERT_TRUE(net.Run().ok());  // must terminate
  EXPECT_GE(net.tcp_stats().connect_failures, 1u);
  EXPECT_EQ(net.tcp_stats().frames_sent, 0u);
}

TEST(TcpNetworkTest, HostileBytesOnListenerAreRejected) {
  TcpNetwork net;
  std::atomic<int> received{0};
  ASSERT_TRUE(
      net.RegisterPeer("rx", [&](const Message&) { ++received; }).ok());
  uint16_t port = net.ListenPort("rx").value();
  ASSERT_TRUE(net.Start().ok());
  // A foreign client connects and writes garbage that parses as an
  // oversized frame header.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  std::string garbage(64, '\xff');
  ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), 0),
            static_cast<ssize_t>(garbage.size()));
  EXPECT_TRUE(net.RunUntil(
      [&] { return net.tcp_stats().frames_bad > 0; }, 5'000'000));
  ::close(fd);
  net.Stop();
  EXPECT_EQ(received.load(), 0);
  EXPECT_GE(net.tcp_stats().frames_bad, 1u);
}

TEST(TcpNetworkTest, BurstOfSmallFramesArrivesCompleteAndInOrder) {
  // A foreign client writes 2000 small frames back to back, so most
  // reads carry hundreds of complete frames: the loop must deliver every
  // one, once and in order, however the kernel splits the stream.
  TcpNetwork net;
  Mutex mu;
  std::vector<uint64_t> got;  // guarded by mu (locals can't be annotated)
  std::atomic<int> received{0};
  ASSERT_TRUE(net.RegisterPeer("rx", [&](const Message& msg) {
                   {
                     MutexLock lock(mu);
                     got.push_back(std::get<PingMsg>(msg.payload).ping_id);
                   }
                   ++received;
                 }).ok());
  uint16_t port = net.ListenPort("rx").value();
  ASSERT_TRUE(net.Start().ok());
  constexpr int kFrames = 2000;
  std::string burst;
  for (int i = 0; i < kFrames; ++i) {
    PingMsg ping;
    ping.ping_id = static_cast<uint64_t>(i);
    ping.origin = "tx";
    wire::AppendFrame(wire::EncodeMessage(Message{"tx", "rx", ping}),
                      /*origin_token=*/0, &burst);
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  for (size_t sent = 0; sent < burst.size();) {
    ssize_t n = ::send(fd, burst.data() + sent, burst.size() - sent, 0);
    ASSERT_GT(n, 0);
    sent += static_cast<size_t>(n);
  }
  EXPECT_TRUE(net.RunUntil([&] { return received.load() == kFrames; },
                           10'000'000));
  ::close(fd);
  net.Stop();
  EXPECT_EQ(net.tcp_stats().frames_received, static_cast<uint64_t>(kFrames));
  EXPECT_EQ(net.tcp_stats().frames_bad, 0u);
  MutexLock lock(mu);
  ASSERT_EQ(got.size(), static_cast<size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_EQ(got[i], static_cast<uint64_t>(i)) << "frame " << i;
  }
}

TEST(TcpNetworkTest, CoverSessionMatchesSimulatedNetwork) {
  BioConfig config;
  config.num_entities = 120;
  auto workload = BioWorkload::Generate(config);
  ASSERT_TRUE(workload.ok());

  auto run_on = [&](Network* net,
                    std::vector<std::unique_ptr<PeerNode>>* peers,
                    auto run_fn) -> MappingTable {
    std::map<std::string, PeerNode*> by_id;
    for (auto& p : *peers) {
      EXPECT_TRUE(p->Attach(net).ok());
      by_id[p->id()] = p.get();
    }
    auto session = by_id.at("Hugo")->StartCoverSession(
        {"Hugo", "Locus", "GDB", "SwissProt", "MIM"},
        {Attribute::String("Hugo_id")}, {Attribute::String("MIM_id")});
    EXPECT_TRUE(session.ok());
    run_fn();
    auto result = by_id.at("Hugo")->GetResult(session.value());
    EXPECT_TRUE(result.ok());
    EXPECT_TRUE(result.value()->done);
    EXPECT_TRUE(result.value()->error.ok()) << result.value()->error;
    return result.value()->cover;
  };

  SimNetwork sim;
  auto sim_peers = workload.value().BuildPeers().value();
  MappingTable sim_cover = run_on(&sim, &sim_peers, [&] {
    ASSERT_TRUE(sim.Run().ok());
  });

  TcpNetwork tcp;
  auto tcp_peers = workload.value().BuildPeers().value();
  MappingTable tcp_cover = run_on(&tcp, &tcp_peers, [&] {
    ASSERT_TRUE(tcp.Run().ok());
  });

  auto equivalent = TablesEquivalent(sim_cover, tcp_cover);
  ASSERT_TRUE(equivalent.ok());
  EXPECT_TRUE(equivalent.value())
      << "sim " << sim_cover.size() << " rows vs tcp " << tcp_cover.size();
}

TEST(TcpNetworkTest, ConcurrentSessionsOnOneNetwork) {
  // Several cover sessions from one initiator in flight at once:
  // exercises interleaved handler execution across peers.
  B2bConfig config;
  config.rows_per_table = 60;
  auto workload = B2bWorkload::Generate(config);
  ASSERT_TRUE(workload.ok());
  auto peers = workload.value().BuildPeers().value();
  TcpNetwork net;
  std::map<std::string, PeerNode*> by_id;
  for (auto& p : peers) {
    ASSERT_TRUE(p->Attach(&net).ok());
    by_id[p->id()] = p.get();
  }
  std::vector<SessionId> sessions;
  for (int i = 0; i < 4; ++i) {
    auto session = by_id.at("P1")->StartCoverSession(
        {"P1", "P2", "P3"}, workload.value().XAttrs(),
        workload.value().YAttrs());
    ASSERT_TRUE(session.ok());
    sessions.push_back(session.value());
  }
  ASSERT_TRUE(net.Run().ok());
  std::optional<size_t> expected;
  for (SessionId id : sessions) {
    auto result = by_id.at("P1")->GetResult(id);
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(result.value()->done);
    ASSERT_TRUE(result.value()->error.ok()) << result.value()->error;
    if (!expected) expected = result.value()->cover.size();
    EXPECT_EQ(result.value()->cover.size(), *expected);
  }
}

TEST(TcpNetworkTest, ValueSearchWorks) {
  BioConfig config;
  config.num_entities = 40;
  config.alias_rate = 0;
  config.protein_extra_rate = 0;
  auto workload = BioWorkload::Generate(config);
  ASSERT_TRUE(workload.ok());
  auto peers = workload.value().BuildPeers().value();
  TcpNetwork net;
  std::map<std::string, PeerNode*> by_id;
  for (auto& p : peers) {
    ASSERT_TRUE(p->Attach(&net).ok());
    by_id[p->id()] = p.get();
  }
  SelectionQuery q;
  q.attrs = {"Hugo_id"};
  q.keys = {{Value("AAA0")}};
  auto search = by_id.at("Hugo")->StartValueSearch(q, 4);
  ASSERT_TRUE(search.ok());
  ASSERT_TRUE(net.Run().ok());
  auto state = by_id.at("Hugo")->Search(search.value());
  ASSERT_TRUE(state.ok());
  EXPECT_TRUE(state.value()->hits.count("Hugo"));  // local data always hits
}

// ---- reuse across runs: one running loop, many WaitQuiescent rounds ----

TEST(TcpNetworkTest, HandlerCanBeReplacedWhileLoopRuns) {
  TcpNetwork net;
  std::atomic<int> first{0};
  std::atomic<int> second{0};
  std::atomic<int> late{0};
  ASSERT_TRUE(net.RegisterPeer("rx", [&](const Message&) { ++first; }).ok());
  ASSERT_TRUE(net.RegisterPeer("tx", [](const Message&) {}).ok());
  ASSERT_TRUE(net.Start().ok());
  PingMsg ping;
  ASSERT_TRUE(net.Send(Message{"tx", "rx", ping}).ok());
  ASSERT_TRUE(net.WaitQuiescent().ok());
  EXPECT_EQ(first.load(), 1);

  net.DetachPeer("rx");
  ASSERT_TRUE(
      net.RegisterPeer("rx", [&](const Message&) { ++second; }).ok());
  EXPECT_EQ(net.RegisterPeer("rx", [](const Message&) {}).code(),
            StatusCode::kAlreadyExists);
  // A peer never seen before binds its listener while the loop runs.
  ASSERT_TRUE(net.RegisterPeer("late", [&](const Message&) { ++late; }).ok());
  ASSERT_TRUE(net.Send(Message{"tx", "rx", ping}).ok());
  ASSERT_TRUE(net.Send(Message{"tx", "late", ping}).ok());
  ASSERT_TRUE(net.WaitQuiescent().ok());
  EXPECT_EQ(first.load(), 1);
  EXPECT_EQ(second.load(), 1);
  EXPECT_EQ(late.load(), 1);
  // The replaced handler kept rx's listener and tx's connection to it.
  EXPECT_EQ(net.tcp_stats().connects, 2u);
  net.Stop();
}

TEST(TcpNetworkTest, DeliveryToDetachedPeerIsDroppedAndReleased) {
  TcpNetwork net;
  std::atomic<int> received{0};
  std::atomic<bool> timer_ran{false};
  ASSERT_TRUE(
      net.RegisterPeer("rx", [&](const Message&) { ++received; }).ok());
  ASSERT_TRUE(net.RegisterPeer("tx", [](const Message&) {}).ok());
  ASSERT_TRUE(net.Start().ok());
  net.DetachPeer("rx");
  PingMsg ping;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(net.Send(Message{"tx", "rx", ping}).ok());
  }
  ASSERT_TRUE(net.ScheduleTimer("rx", 100, [&] { timer_ran = true; }).ok());
  // Would hang if a dropped frame or timer kept its hold on quiescence.
  ASSERT_TRUE(net.WaitQuiescent().ok());
  EXPECT_EQ(received.load(), 0);
  EXPECT_FALSE(timer_ran.load());
  EXPECT_EQ(net.tcp_stats().frames_received, 5u);
  EXPECT_EQ(net.stats().timers_fired, 0u);

  ASSERT_TRUE(
      net.RegisterPeer("rx", [&](const Message&) { ++received; }).ok());
  ASSERT_TRUE(net.Send(Message{"tx", "rx", ping}).ok());
  ASSERT_TRUE(net.WaitQuiescent().ok());
  EXPECT_EQ(received.load(), 1);
  net.Stop();
}

TEST(TcpNetworkTest, WaitQuiescentRoundsOpenEachConnectionOnce) {
  TcpNetwork net;
  std::atomic<int> replies{0};
  ASSERT_TRUE(net.RegisterPeer("a", [&](const Message&) { ++replies; }).ok());
  auto echo = [&](const Message& msg) {
    IgnoreStatus(net.Send(Message{"b", "a", std::get<PingMsg>(msg.payload)}));
  };
  ASSERT_TRUE(net.RegisterPeer("b", echo).ok());
  EXPECT_FALSE(net.WaitQuiescent().ok());  // not started
  ASSERT_TRUE(net.Start().ok());
  PingMsg ping;
  for (int round = 1; round <= 2; ++round) {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(net.Send(Message{"a", "b", ping}).ok());
    }
    ASSERT_TRUE(net.WaitQuiescent().ok());
    EXPECT_EQ(replies.load(), 10 * round);
    EXPECT_EQ(net.tcp_stats().connects, 2u) << "round " << round;
  }
  net.Stop();
}

TEST(TcpNetworkTest, EarlierTimerFromAnotherThreadWakesTheLoop) {
  TcpNetwork net;
  ASSERT_TRUE(net.RegisterPeer("a", [](const Message&) {}).ok());
  ASSERT_TRUE(net.Start().ok());
  std::atomic<bool> late{false};
  std::atomic<bool> early{false};
  auto slow = net.ScheduleTimer("a", 5'000'000, [&] { late = true; });
  ASSERT_TRUE(slow.ok());
  // Give the loop time to go to sleep until the 5 s timer.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(net.ScheduleTimer("a", 1000, [&] { early = true; }).ok());
  EXPECT_TRUE(net.RunUntil([&] { return early.load(); }, 2'000'000));
  EXPECT_FALSE(late.load());
  net.CancelTimer(slow.value());
  ASSERT_TRUE(net.WaitQuiescent().ok());
  net.Stop();
}

TEST(TcpNetworkTest, StopWithTrafficInFlightDoesNotHangOrCrash) {
  for (int round = 0; round < 3; ++round) {
    auto net = std::make_unique<TcpNetwork>();
    std::atomic<int> bounced{0};
    auto relay = [&](const std::string& self, const std::string& other) {
      return [&, self, other](const Message& msg) {
        ++bounced;
        // Endless ping-pong: traffic is always in flight.
        // Send failures end the volley early, which the test tolerates:
        // it only asserts that traffic bounced at all.
        IgnoreStatus(
            net->Send(Message{self, other, std::get<PingMsg>(msg.payload)}));
      };
    };
    ASSERT_TRUE(net->RegisterPeer("a", relay("a", "b")).ok());
    ASSERT_TRUE(net->RegisterPeer("b", relay("b", "a")).ok());
    ASSERT_TRUE(net->Start().ok());
    PingMsg ping;
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(net->Send(Message{"a", "b", ping}).ok());
    }
    // Let some traffic flow, then tear down mid-flight.  The test only
    // needs "traffic happened", so a timeout here is not a failure.
    const bool flowed = net->RunUntil(
        [&] { return bounced.load() > 50; }, 5'000'000);
    (void)flowed;
    net->Stop(/*drain_timeout_us=*/0);
    net.reset();  // destructor after Stop must also be clean
  }
}

}  // namespace
}  // namespace hyperion
