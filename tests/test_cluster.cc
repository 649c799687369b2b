// Cluster runtime: config parsing, membership transitions (fake clock),
// slice/assemble round-trips, and a full in-process three-node cluster
// over loopback TCP whose fetched tables must be byte-identical to the
// local store — plus the loud-failure contract when a storage node dies.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/cluster_config.h"
#include "obs/metrics.h"
#include "cluster/membership.h"
#include "cluster/node.h"
#include "cluster/shard_ring.h"
#include "cluster/shutdown.h"
#include "p2p/tcp_network.h"
#include "service/catalogs.h"
#include "storage/shard_split.h"
#include "storage/table_store.h"
#include "test_util.h"

namespace hyperion {
namespace cluster {
namespace {

constexpr char kSampleConfig[] =
    "# three-process demo cluster\n"
    "shards 2\n"
    "vnodes 64\n"
    "heartbeat_ms 200\n"
    "suspect_ms 1000\n"
    "down_ms 3000\n"
    "fetch_timeout_ms 5000\n"
    "node coord  coordinator 127.0.0.1 9100\n"
    "node store1 storage     127.0.0.1 9101   # comments allowed\n"
    "node store2 storage     127.0.0.1 0\n";

TEST(ClusterConfigTest, ParsesTheDocumentedFormat) {
  auto config = ClusterConfig::Parse(kSampleConfig);
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_EQ(config.value().shard_count, 2u);
  EXPECT_EQ(config.value().vnodes, 64u);
  EXPECT_EQ(config.value().heartbeat_ms, 200u);
  ASSERT_EQ(config.value().nodes.size(), 3u);
  EXPECT_EQ(config.value().nodes[0].role, NodeRole::kCoordinator);
  EXPECT_EQ(config.value().nodes[1].Address(), "127.0.0.1:9101");
  EXPECT_EQ(config.value().nodes[2].port, 0);  // ephemeral
  EXPECT_EQ(config.value().StorageNodeIds(),
            (std::vector<std::string>{"store1", "store2"}));
  auto coord = config.value().Coordinator();
  ASSERT_TRUE(coord.ok());
  EXPECT_EQ(coord.value().id, "coord");
}

TEST(ClusterConfigTest, ToStringRoundTrips) {
  auto config = ClusterConfig::Parse(kSampleConfig);
  ASSERT_TRUE(config.ok());
  auto again = ClusterConfig::Parse(config.value().ToString());
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again.value().ToString(), config.value().ToString());
}

TEST(ClusterConfigTest, RejectsBrokenConfigs) {
  // Errors carry the line number so a bad launch script fails debuggably.
  auto junk = ClusterConfig::Parse("shards 2 extra\n");
  EXPECT_FALSE(junk.ok());
  EXPECT_NE(junk.status().message().find("line 1"), std::string::npos);

  EXPECT_FALSE(ClusterConfig::Parse("flux 3\n").ok());        // directive
  EXPECT_FALSE(ClusterConfig::Parse("shards two\n").ok());    // number
  EXPECT_FALSE(
      ClusterConfig::Parse("node a storage 127.0.0.1 70000\n").ok());

  // No coordinator / two coordinators / duplicate ids / no storage.
  EXPECT_FALSE(ClusterConfig::Parse("node a storage h 1\n").ok());
  EXPECT_FALSE(
      ClusterConfig::Parse("node a coordinator h 1\n"
                           "node b coordinator h 2\n"
                           "node c storage h 3\n")
          .ok());
  EXPECT_FALSE(
      ClusterConfig::Parse("node a coordinator h 1\n"
                           "node a storage h 2\n")
          .ok());
  EXPECT_FALSE(ClusterConfig::Parse("node a coordinator h 1\n").ok());

  // Timeout ordering: heartbeat <= suspect <= down.
  EXPECT_FALSE(
      ClusterConfig::Parse("heartbeat_ms 500\n"
                           "suspect_ms 100\n"
                           "node a coordinator h 1\n"
                           "node b storage h 2\n")
          .ok());
}

TEST(ClusterConfigTest, ParsesReplicationAndFailoverKnobs) {
  auto config = ClusterConfig::Parse(
      "shards 4\n"
      "replication 2\n"
      "replica_timeout_ms 250\n"
      "fetch_attempts 3\n"
      "fetch_backoff_ms 20\n"
      "hedge_ms 80\n"
      "node coord coordinator 127.0.0.1 9100\n"
      "node store1 storage 127.0.0.1 9101\n");
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_EQ(config.value().replication, 2u);
  EXPECT_EQ(config.value().replica_timeout_ms, 250u);
  EXPECT_EQ(config.value().fetch_attempts, 3u);
  EXPECT_EQ(config.value().fetch_backoff_ms, 20u);
  EXPECT_EQ(config.value().hedge_ms, 80u);
  auto again = ClusterConfig::Parse(config.value().ToString());
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again.value().ToString(), config.value().ToString());

  // Zero copies / zero attempts are configs that can never answer.
  EXPECT_FALSE(ClusterConfig::Parse("replication 0\n"
                                    "node a coordinator h 1\n"
                                    "node b storage h 2\n")
                   .ok());
  EXPECT_FALSE(ClusterConfig::Parse("fetch_attempts 0\n"
                                    "node a coordinator h 1\n"
                                    "node b storage h 2\n")
                   .ok());
}

TEST(ClusterConfigTest, WritePathKnobsRoundTripFullyPopulated) {
  // Every knob the format knows — replication/failover (PR 7) plus the
  // write path — set to a non-default value: parse(ToString(c)) must
  // reproduce c exactly, field for field.
  auto config = ClusterConfig::Parse(
      "shards 4\n"
      "vnodes 32\n"
      "replication 2\n"
      "heartbeat_ms 100\n"
      "suspect_ms 600\n"
      "down_ms 2000\n"
      "fetch_timeout_ms 7000\n"
      "replica_timeout_ms 250\n"
      "fetch_attempts 3\n"
      "fetch_backoff_ms 20\n"
      "hedge_ms 80\n"
      "write_quorum 1\n"
      "write_timeout_ms 9000\n"
      "write_attempts 4\n"
      "write_backoff_ms 30\n"
      "repair_interval_ms 150\n"
      "node coord coordinator 127.0.0.1 9100\n"
      "node store1 storage 127.0.0.1 9101\n"
      "node store2 storage 127.0.0.1 0\n");
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_EQ(config.value().write_quorum, 1u);
  EXPECT_EQ(config.value().write_timeout_ms, 9000u);
  EXPECT_EQ(config.value().write_attempts, 4u);
  EXPECT_EQ(config.value().write_backoff_ms, 30u);
  EXPECT_EQ(config.value().repair_interval_ms, 150u);

  auto again = ClusterConfig::Parse(config.value().ToString());
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again.value().ToString(), config.value().ToString());
  EXPECT_EQ(again.value().write_quorum, config.value().write_quorum);
  EXPECT_EQ(again.value().write_timeout_ms, config.value().write_timeout_ms);
  EXPECT_EQ(again.value().write_attempts, config.value().write_attempts);
  EXPECT_EQ(again.value().write_backoff_ms, config.value().write_backoff_ms);
  EXPECT_EQ(again.value().repair_interval_ms,
            config.value().repair_interval_ms);

  // The default (0 = all-alive) round-trips too: ToString omits the
  // directive rather than emit a value the parser refuses.
  auto implicit = ClusterConfig::Parse(
      "node a coordinator h 1\n"
      "node b storage h 2\n");
  ASSERT_TRUE(implicit.ok());
  EXPECT_EQ(implicit.value().write_quorum, 0u);
  auto implicit_again = ClusterConfig::Parse(implicit.value().ToString());
  ASSERT_TRUE(implicit_again.ok()) << implicit_again.status();
  EXPECT_EQ(implicit_again.value().write_quorum, 0u);
}

TEST(ClusterConfigTest, RejectsImpossibleWriteQuorums) {
  // An explicit quorum of zero could never commit a write; the rejection
  // must carry the offending line number.
  auto zero = ClusterConfig::Parse(
      "replication 2\n"
      "write_quorum 0\n"
      "node a coordinator h 1\n"
      "node b storage h 2\n"
      "node c storage h 3\n");
  ASSERT_FALSE(zero.ok());
  EXPECT_NE(zero.status().message().find("line 2"), std::string::npos)
      << zero.status();

  // A quorum above the replication factor can never be met either —
  // caught even though replication appears later in the file.
  auto high = ClusterConfig::Parse(
      "write_quorum 3\n"
      "replication 2\n"
      "node a coordinator h 1\n"
      "node b storage h 2\n"
      "node c storage h 3\n");
  ASSERT_FALSE(high.ok());
  EXPECT_NE(high.status().message().find("line 1"), std::string::npos)
      << high.status();

  // Zero write attempts / a zero repair interval are configs that can
  // never converge.
  EXPECT_FALSE(ClusterConfig::Parse("write_attempts 0\n"
                                    "node a coordinator h 1\n"
                                    "node b storage h 2\n")
                   .ok());
  EXPECT_FALSE(ClusterConfig::Parse("repair_interval_ms 0\n"
                                    "node a coordinator h 1\n"
                                    "node b storage h 2\n")
                   .ok());
}

TEST(MembershipTest, HeartbeatSilenceAndRepair) {
  // Clock-free tracker: timestamps are fed in, so the state machine is
  // exercised deterministically without sleeping.
  MembershipTracker tracker("self", {"a", "b"}, /*suspect_after_us=*/1000,
                            /*down_after_us=*/3000);
  EXPECT_EQ(tracker.StateOf("a"), MemberState::kUnknown);
  EXPECT_FALSE(tracker.AllAlive());

  tracker.Observe("a", 100);
  tracker.Observe("b", 100);
  EXPECT_EQ(tracker.StateOf("a"), MemberState::kAlive);
  EXPECT_TRUE(tracker.AllAlive());

  // Not on the roster: ignored, not adopted.
  tracker.Observe("stranger", 100);
  EXPECT_EQ(tracker.StateOf("stranger"), MemberState::kUnknown);

  // b keeps beating; a goes silent past the suspect deadline...
  tracker.Observe("b", 1200);
  auto changed = tracker.SweepAt(1200);
  ASSERT_EQ(changed.size(), 1u);
  EXPECT_EQ(changed[0].node, "a");
  EXPECT_EQ(changed[0].state, MemberState::kSuspect);
  EXPECT_EQ(tracker.StateOf("b"), MemberState::kAlive);
  EXPECT_FALSE(tracker.AllAlive());

  // ...then past the down deadline.
  tracker.Observe("b", 3200);
  changed = tracker.SweepAt(3200);
  ASSERT_EQ(changed.size(), 1u);
  EXPECT_EQ(changed[0].state, MemberState::kDown);

  // A heartbeat repairs even a down member.
  tracker.Observe("a", 3300);
  EXPECT_EQ(tracker.StateOf("a"), MemberState::kAlive);
  EXPECT_TRUE(tracker.AllAlive());

  // An idle sweep changes nothing.
  EXPECT_TRUE(tracker.SweepAt(3400).empty());
}

TEST(MembershipTest, UnknownMembersHaveNoDeadline) {
  MembershipTracker tracker("self", {"a"}, 1000, 3000);
  // Never heard from: silence must not page anyone (the node may simply
  // not have started yet).
  EXPECT_TRUE(tracker.SweepAt(1'000'000).empty());
  EXPECT_EQ(tracker.StateOf("a"), MemberState::kUnknown);
}

TEST(MembershipFlappingTest, JitteredHeartbeatsStayAlive) {
  // Heartbeats with jitter up to just under the suspect timeout: the
  // member must stay alive through every sweep, with zero suspect or
  // down transitions recorded.
  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  const uint64_t suspects0 =
      reg.GetCounter("cluster.suspect_transitions")->value();
  const uint64_t downs0 = reg.GetCounter("cluster.down_transitions")->value();

  MembershipTracker tracker("self", {"a"}, /*suspect_after_us=*/1000,
                            /*down_after_us=*/3000);
  // Inter-arrival jitter: 400, 900, 100, 950, 600 µs — all under 1000.
  const int64_t arrivals[] = {100, 500, 1400, 1500, 2450, 3050};
  for (int64_t t : arrivals) {
    tracker.Observe("a", t);
    EXPECT_TRUE(tracker.SweepAt(t).empty());
    EXPECT_EQ(tracker.StateOf("a"), MemberState::kAlive);
  }
  EXPECT_EQ(reg.GetCounter("cluster.suspect_transitions")->value(),
            suspects0);
  EXPECT_EQ(reg.GetCounter("cluster.down_transitions")->value(), downs0);
}

TEST(MembershipFlappingTest, DelayedHeartbeatsCycleAliveSuspectAlive) {
  // A member whose heartbeats keep arriving late — past the suspect
  // deadline but before the down deadline — must flap alive↔suspect
  // without ever being declared down, and the counters must record
  // exactly the transitions that happened.
  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  const uint64_t alives0 =
      reg.GetCounter("cluster.alive_transitions")->value();
  const uint64_t suspects0 =
      reg.GetCounter("cluster.suspect_transitions")->value();
  const uint64_t downs0 = reg.GetCounter("cluster.down_transitions")->value();

  MembershipTracker tracker("self", {"a"}, /*suspect_after_us=*/1000,
                            /*down_after_us=*/3000);
  int64_t now = 100;
  tracker.Observe("a", now);  // first contact: unknown -> alive
  constexpr int kFlaps = 3;
  for (int flap = 0; flap < kFlaps; ++flap) {
    // Silence past the suspect deadline...
    now += 1500;
    auto changed = tracker.SweepAt(now);
    ASSERT_EQ(changed.size(), 1u) << "flap " << flap;
    EXPECT_EQ(changed[0].state, MemberState::kSuspect);
    // ...sweeping again just shy of the down deadline must not demote
    // further (no spurious down)...
    EXPECT_TRUE(tracker.SweepAt(now + 1400).empty());
    EXPECT_EQ(tracker.StateOf("a"), MemberState::kSuspect);
    // ...and the late heartbeat repairs the member.
    now += 1400;
    tracker.Observe("a", now);
    EXPECT_EQ(tracker.StateOf("a"), MemberState::kAlive);
    EXPECT_TRUE(tracker.AllAlive());
  }
  EXPECT_EQ(tracker.StateOf("a"), MemberState::kAlive);
  // 1 first-contact + kFlaps recoveries; kFlaps suspects; zero downs.
  if constexpr (obs::kMetricsEnabled) {
    EXPECT_EQ(reg.GetCounter("cluster.alive_transitions")->value() - alives0,
              static_cast<uint64_t>(1 + kFlaps));
    EXPECT_EQ(
        reg.GetCounter("cluster.suspect_transitions")->value() - suspects0,
        static_cast<uint64_t>(kFlaps));
    EXPECT_EQ(reg.GetCounter("cluster.down_transitions")->value(), downs0);
  }
}

// --- slice / assemble ----------------------------------------------------

class ShardSplitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    BioConfig bio;
    bio.num_entities = 120;
    auto catalog = BuildBioCatalog(bio);
    ASSERT_TRUE(catalog.ok()) << catalog.status();
    store_ = std::move(catalog.value().store);
  }

  std::unique_ptr<TableStore> store_;
};

TEST_F(ShardSplitTest, SliceAndAssembleReproducesEveryTableExactly) {
  auto ring = ShardRing::Build({"n1", "n2", "n3"}, 4);
  ASSERT_TRUE(ring.ok());
  ShardOfKeyFn shard_of = [&](const std::string& key) {
    return ring.value().ShardForKey(key);
  };
  std::vector<uint64_t> all_shards = {0, 1, 2, 3};
  for (const std::string& name : store_->Names()) {
    auto vt = store_->GetWithVersion(name);
    ASSERT_TRUE(vt.ok());
    auto slices = SliceTable(*vt.value().table, vt.value().version, shard_of,
                             all_shards);
    ASSERT_EQ(slices.size(), 4u);  // empty shards still get a slice
    size_t sliced_rows = 0;
    std::vector<const ShardSlice*> views;
    for (auto& [shard, slice] : slices) {
      sliced_rows += slice.rows.size();
      views.push_back(&slice);
    }
    EXPECT_EQ(sliced_rows, vt.value().table->size());
    auto assembled = AssembleTable(name, views);
    ASSERT_TRUE(assembled.ok()) << name << ": " << assembled.status();
    // Byte-identical, not merely row-equal: ordering matters.
    EXPECT_EQ(assembled.value().Serialize(), vt.value().table->Serialize());
  }
}

TEST_F(ShardSplitTest, MissingShardFailsLoudly) {
  auto ring = ShardRing::Build({"n1", "n2"}, 4);
  ASSERT_TRUE(ring.ok());
  ShardOfKeyFn shard_of = [&](const std::string& key) {
    return ring.value().ShardForKey(key);
  };
  const std::string name = store_->Names().front();
  auto vt = store_->GetWithVersion(name);
  ASSERT_TRUE(vt.ok());
  auto slices = SliceTable(*vt.value().table, vt.value().version, shard_of,
                           {0, 1, 2, 3});
  // Drop one non-empty slice: assembly must refuse, never shrink.
  std::vector<const ShardSlice*> views;
  bool dropped = false;
  for (auto& [shard, slice] : slices) {
    if (!dropped && !slice.rows.empty()) {
      dropped = true;
      continue;
    }
    views.push_back(&slice);
  }
  ASSERT_TRUE(dropped);
  auto assembled = AssembleTable(name, views);
  EXPECT_FALSE(assembled.ok());
}

TEST_F(ShardSplitTest, SliceStoreRestrictsToOwnedShards) {
  auto ring = ShardRing::Build({"n1", "n2"}, 2);
  ASSERT_TRUE(ring.ok());
  ShardOfKeyFn shard_of = [&](const std::string& key) {
    return ring.value().ShardForKey(key);
  };
  auto slices = SliceStore(*store_, shard_of, {1});
  ASSERT_TRUE(slices.ok());
  for (const auto& [key, slice] : slices.value()) {
    EXPECT_EQ(key.second, 1u);
    EXPECT_EQ(slice.shard, 1u);
  }
  // One slice per table for the single owned shard.
  EXPECT_EQ(slices.value().size(), store_->Names().size());
}

// --- in-process three-node cluster over loopback TCP ---------------------

class ClusterE2ETest : public testing_util::ClusterTest {
 protected:
  void StartCluster(uint64_t fetch_timeout_ms, uint64_t replication = 1,
                    size_t num_storage = 2,
                    uint64_t replica_timeout_ms = 1000) {
    BioConfig bio;
    bio.num_entities = 100;

    ClusterConfig seed;
    seed.shard_count = 2;
    seed.replication = replication;
    seed.heartbeat_ms = 50;
    seed.suspect_ms = 400;
    seed.down_ms = 1200;
    seed.fetch_timeout_ms = fetch_timeout_ms;
    seed.replica_timeout_ms = replica_timeout_ms;
    seed.fetch_attempts = 2;
    seed.fetch_backoff_ms = 20;
    seed.nodes = {{"coord", NodeRole::kCoordinator, "127.0.0.1", 0}};
    for (size_t i = 1; i <= num_storage; ++i) {
      seed.nodes.push_back({"s" + std::to_string(i), NodeRole::kStorage,
                            "127.0.0.1", 0});
    }
    ASSERT_NO_FATAL_FAILURE(StartNodes(seed, bio));
  }
};

TEST_F(ClusterE2ETest, FetchedTablesAreByteIdenticalToLocalStore) {
  StartCluster(/*fetch_timeout_ms=*/5000);
  for (const std::string& name : reference_->Names()) {
    auto want = reference_->GetWithVersion(name);
    ASSERT_TRUE(want.ok());
    auto got = coord_->table_source()->Fetch(name);
    ASSERT_TRUE(got.ok()) << name << ": " << got.status();
    EXPECT_EQ(got.value().version, want.value().version);
    EXPECT_EQ(got.value().table->Serialize(),
              want.value().table->Serialize());
  }
  // Second fetch: served from the table cache, same handle semantics.
  const std::string first = reference_->Names().front();
  auto again = coord_->table_source()->Fetch(first);
  ASSERT_TRUE(again.ok());
}

TEST_F(ClusterE2ETest, UnroutableReplyIsCountedNotSwallowed) {
  // Regression: storage handlers used to (void)-discard the Status of
  // sending a reply, so a reply that could not be routed vanished with
  // no trace — to the requester, indistinguishable from a dead node.
  // Every dropped reply must bump `cluster.reply.send_failures`.
  StartCluster(/*fetch_timeout_ms=*/5000);
  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  const uint64_t failures0 =
      reg.GetCounter("cluster.reply.send_failures")->value();

  // A "ghost" requester: it can dial s1, but s1 has no address for it —
  // the fetch arrives fine and the reply's Send fails with NotFound.
  auto port = storage_[0]->ListenPort();
  ASSERT_TRUE(port.ok());
  TcpNetwork ghost;
  ASSERT_TRUE(ghost.RegisterPeer("ghost", [](const Message&) {}).ok());
  ghost.SetRemotePeer("s1", "127.0.0.1:" + std::to_string(port.value()));
  ASSERT_TRUE(ghost.Start().ok());
  ShardFetchMsg fetch;
  fetch.request_id = 999;
  fetch.table_name = "no-such-table";
  fetch.shard = 0;
  ASSERT_TRUE(ghost.Send(Message{"ghost", "s1", fetch}).ok());

  if constexpr (obs::kMetricsEnabled) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (reg.GetCounter("cluster.reply.send_failures")->value() ==
               failures0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_GT(reg.GetCounter("cluster.reply.send_failures")->value(),
              failures0);
  }
  // The failed reply costs s1 nothing: it keeps serving real requesters.
  coord_->table_source()->Evict();
  for (const std::string& name : reference_->Names()) {
    auto got = coord_->table_source()->Fetch(name);
    EXPECT_TRUE(got.ok()) << name << ": " << got.status();
  }
  ghost.Stop();
}

TEST_F(ClusterE2ETest, UnknownTableFailsWithTheServingNodeNamed) {
  StartCluster(/*fetch_timeout_ms=*/5000);
  auto got = coord_->table_source()->Fetch("no_such_table");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
  // The error must say which storage node answered.
  EXPECT_NE(got.status().message().find("storage node"), std::string::npos)
      << got.status();
}

TEST_F(ClusterE2ETest, DeadStorageNodeIsLoudlyAttributed) {
  StartCluster(/*fetch_timeout_ms=*/500);
  const std::string first = reference_->Names().front();
  ASSERT_TRUE(coord_->table_source()->Fetch(first).ok());

  // Kill the owner of shard 0, drop the cache, fetch again: the failure
  // must be kUnavailable and must name the dead node.
  const std::string victim = coord_->ring()->OwnerForShard(0);
  for (auto& storage : storage_) {
    if (storage->self().id == victim) storage->Stop();
  }
  coord_->table_source()->Evict();
  auto got = coord_->table_source()->Fetch(first);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kUnavailable) << got.status();
  EXPECT_NE(got.status().message().find("'" + victim + "'"),
            std::string::npos)
      << "error does not name the dead node: " << got.status();
}

// The traced cluster-rw invariant (perfbench's
// cluster.attempts_per_shard_fetch): on a loss-free cluster every shard
// fetch is answered by its first attempt — no reroute, no hedge, no
// retry.  The replica timeout is far above any loopback round trip, so
// only a protocol fault can send a second attempt.
TEST_F(ClusterE2ETest, OneAttemptPerShardFetchWhenLossFree) {
  if constexpr (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  StartCluster(/*fetch_timeout_ms=*/60'000, /*replication=*/2,
               /*num_storage=*/3, /*replica_timeout_ms=*/30'000);
  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  const uint64_t attempts0 =
      reg.GetCounter("cluster.replica.attempts")->value();
  const uint64_t fetches0 = reg.GetCounter("cluster.shard_fetches")->value();
  for (int round = 0; round < 3; ++round) {
    coord_->table_source()->Evict();
    for (const std::string& name : reference_->Names()) {
      auto got = coord_->table_source()->Fetch(name);
      ASSERT_TRUE(got.ok()) << name << ": " << got.status();
    }
  }
  const uint64_t fetches =
      reg.GetCounter("cluster.shard_fetches")->value() - fetches0;
  EXPECT_EQ(fetches, 3 * reference_->Names().size() * 2);
  EXPECT_EQ(reg.GetCounter("cluster.replica.attempts")->value() - attempts0,
            fetches);
}

// --- replication=2 failover ----------------------------------------------

class ClusterFailoverE2ETest : public ClusterE2ETest {
 protected:
  // Three storage nodes, two copies of every shard, tight per-replica
  // timeout so a dead primary costs milliseconds, not seconds.
  void StartReplicatedCluster() {
    StartCluster(/*fetch_timeout_ms=*/10'000, /*replication=*/2,
                 /*num_storage=*/3, /*replica_timeout_ms=*/250);
  }
};

TEST_F(ClusterFailoverE2ETest, FailsOverToReplicaWhenPrimaryDies) {
  StartReplicatedCluster();
  const std::string table = reference_->Names().front();
  ASSERT_TRUE(coord_->table_source()->Fetch(table).ok());

  // Kill the primary of shard 0 (a replica of every table's shard 0),
  // drop the cache: the re-fetch must succeed from a surviving replica
  // and the assembled bytes must be unchanged.
  const std::string victim = coord_->ring()->OwnerForShard(0);
  StopStorageNode(victim);
  coord_->table_source()->Evict();

  auto got = coord_->table_source()->Fetch(table);
  ASSERT_TRUE(got.ok()) << got.status();
  auto want = reference_->GetWithVersion(table);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(got.value().table->Serialize(), want.value().table->Serialize());
  // The per-shard accounting is append-only; the newest shard-0 entry
  // for the table must show a survivor served it.
  std::string last_owner;
  for (const auto& stat : coord_->table_source()->ShardStats()) {
    if (stat.table == table && stat.shard == 0) last_owner = stat.owner;
  }
  EXPECT_NE(last_owner, victim);
  EXPECT_FALSE(last_owner.empty());
}

TEST_F(ClusterFailoverE2ETest, ZeroFailedQueriesMidWorkload) {
  StartReplicatedCluster();
  // Warm pass over the whole catalog, then lose the shard-0 primary and
  // run the full workload again cold: every fetch must still answer,
  // byte-identical — the paper's covers cannot silently shrink.
  for (const std::string& name : reference_->Names()) {
    ASSERT_TRUE(coord_->table_source()->Fetch(name).ok());
  }
  const std::string victim = coord_->ring()->OwnerForShard(0);
  StopStorageNode(victim);
  coord_->table_source()->Evict();
  for (const std::string& name : reference_->Names()) {
    auto got = coord_->table_source()->Fetch(name);
    ASSERT_TRUE(got.ok()) << name << ": " << got.status();
    auto want = reference_->GetWithVersion(name);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(got.value().table->Serialize(),
              want.value().table->Serialize());
  }
}

TEST_F(ClusterFailoverE2ETest, ExhaustedReplicaSetNamesAllDeadNodes) {
  StartReplicatedCluster();
  const std::string table = reference_->Names().front();
  // Kill the whole replica set of shard 0: the fetch must escalate to
  // kUnavailable and the error must name every dead replica.
  const std::vector<std::string> owners = coord_->ring()->OwnersForShard(0);
  ASSERT_EQ(owners.size(), 2u);
  for (const std::string& owner : owners) StopStorageNode(owner);
  coord_->table_source()->Evict();

  auto got = coord_->table_source()->Fetch(table);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kUnavailable) << got.status();
  for (const std::string& owner : owners) {
    EXPECT_NE(got.status().message().find("'" + owner + "'"),
              std::string::npos)
        << "error does not name dead replica " << owner << ": "
        << got.status();
  }
}

TEST_F(ClusterFailoverE2ETest, MembershipDownEvictsCachedTables) {
  StartReplicatedCluster();
  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  const uint64_t evictions0 =
      reg.GetCounter("cluster.replica.cache_evictions")->value();
  const std::string table = reference_->Names().front();
  ASSERT_TRUE(coord_->table_source()->Fetch(table).ok());

  // Stop the shard-0 primary and wait for the membership sweep to call
  // it down; the coordinator must drop every cached table assembled
  // from its slices — without any explicit Evict().
  const std::string victim = coord_->ring()->OwnerForShard(0);
  ASSERT_TRUE(coord_->table_source()->IsCached(table));
  StopStorageNode(victim);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  while (coord_->table_source()->IsCached(table)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << victim << " never went down / evicted nothing";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(coord_->membership().StateOf(victim), MemberState::kDown);
  if constexpr (obs::kMetricsEnabled) {
    EXPECT_GT(reg.GetCounter("cluster.replica.cache_evictions")->value(),
              evictions0);
  }

  // The next fetch re-assembles over the wire from survivors.
  auto got = coord_->table_source()->Fetch(table);
  ASSERT_TRUE(got.ok()) << got.status();
  auto want = reference_->GetWithVersion(table);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(got.value().table->Serialize(), want.value().table->Serialize());
  std::string last_owner;
  for (const auto& stat : coord_->table_source()->ShardStats()) {
    if (stat.table == table && stat.shard == 0) last_owner = stat.owner;
  }
  EXPECT_NE(last_owner, victim);
  EXPECT_FALSE(last_owner.empty());
}

TEST(ShutdownFlagTest, InstallAndResetAreIdempotent) {
  InstallShutdownSignalHandlers();
  InstallShutdownSignalHandlers();
  ResetShutdownRequested();
  EXPECT_FALSE(ShutdownRequested());
}

}  // namespace
}  // namespace cluster
}  // namespace hyperion
