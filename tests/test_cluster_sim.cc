// A whole cluster — a coordinator and three storage nodes at
// replication 2 — on one SimNetwork with no compute charge, so every
// step lands at an exact virtual time and a run replays byte for byte.
// Each protocol of the node gets its own test here: membership (a silent
// node goes suspect, then down, at the sweep), storage serving (a fetch
// is one round trip, answered by its first attempt), repair (a replica
// that missed writes in a crash window chains back to the committed
// version), and rebalance (a join commits on the joiner's handoff ack).
// The last test runs every step in one cluster twice and requires the
// two transcripts to match.

#include <gtest/gtest.h>

#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster_config.h"
#include "cluster/membership.h"
#include "cluster/node.h"
#include "common/hash_util.h"
#include "core/curator.h"
#include "core/mapping_table.h"
#include "obs/metrics.h"
#include "p2p/network.h"
#include "p2p/wire.h"
#include "service/catalogs.h"
#include "storage/table_store.h"
#include "test_util.h"

namespace hyperion {
namespace cluster {
namespace {

using testing_util::SimCluster;

// One-way link latency: a request and its reply take 2 ms.
constexpr int64_t kLatencyUs = 1000;

ClusterConfig SimConfig() {
  ClusterConfig config;
  config.shard_count = 2;
  config.replication = 2;
  config.heartbeat_ms = 50;
  config.suspect_ms = 400;
  config.down_ms = 1200;
  config.fetch_timeout_ms = 5000;
  config.replica_timeout_ms = 250;
  config.fetch_attempts = 2;
  config.fetch_backoff_ms = 20;
  config.write_quorum = 1;
  config.write_timeout_ms = 3000;
  config.write_attempts = 2;
  config.write_backoff_ms = 20;
  config.repair_interval_ms = 100;
  config.nodes = {{"coord", NodeRole::kCoordinator, "sim", 7000},
                  {"s1", NodeRole::kStorage, "sim", 7001},
                  {"s2", NodeRole::kStorage, "sim", 7002},
                  {"s3", NodeRole::kStorage, "sim", 7003}};
  return config;
}

BioConfig Bio() {
  BioConfig bio;
  bio.num_entities = 100;
  return bio;
}

// Every node starts at t=0 and beats at once; the first round of beats
// lands one latency later.
constexpr int64_t kAllAliveUs = kLatencyUs;

// Runs the cluster until everyone is alive in everyone's eyes.
void AwaitAllAlive(SimCluster& cluster) {
  cluster.RunUntil([&] { return cluster.AllAlive(); }, 1'000'000);
}

// Fetches every table through the coordinator and requires it to be
// byte-identical to the reference replay.
void ExpectTablesMatchReference(SimCluster& cluster) {
  for (const std::string& name : cluster.reference().Names()) {
    auto want = cluster.reference().GetWithVersion(name);
    ASSERT_TRUE(want.ok());
    auto got = cluster.coord().table_source()->Fetch(name);
    ASSERT_TRUE(got.ok()) << name << ": " << got.status();
    EXPECT_EQ(got.value().version, want.value().version) << name;
    EXPECT_EQ(got.value().table->Serialize(), want.value().table->Serialize())
        << name;
  }
}

// One curator write of (x, y) into `table` through the cluster.  The
// reference store holds exactly the cluster's committed state, so the
// write builds on it instead of fetching the table mid-fault.
Result<ClusterTableSink::WriteReport> WriteAndMirror(SimCluster& cluster,
                                                     const std::string& table,
                                                     const std::string& x,
                                                     const std::string& y) {
  HYP_ASSIGN_OR_RETURN(VersionedTable base,
                       cluster.reference().GetWithVersion(table));
  HYP_ASSIGN_OR_RETURN(MappingTable pair,
                       MappingTable::Create(base.table->x_schema(),
                                            base.table->y_schema(), table));
  HYP_RETURN_IF_ERROR(pair.AddPair({Value(x)}, {Value(y)}));
  HYP_ASSIGN_OR_RETURN(MappingTable written,
                       MergeUnion(*base.table, pair, table));
  HYP_ASSIGN_OR_RETURN(
      ClusterTableSink::WriteReport report,
      cluster.coord().table_sink()->Apply(written, base.version + 1));
  cluster.coord().table_source()->EvictTable(table);
  HYP_RETURN_IF_ERROR(cluster.reference().PutOrReplace(std::move(written)));
  return report;
}

// The shards `node` replicates, all at `version` in its write log.
bool AtVersion(const ClusterNode& node, uint64_t version) {
  for (uint64_t shard : node.owned_shards()) {
    if (node.write_log().VersionOf(shard) != version) return false;
  }
  return true;
}

TEST(ClusterSimTest, SilentNodeGoesSuspectThenDownAtTheSweep) {
  SimCluster cluster(SimConfig(), Bio(), kLatencyUs);
  AwaitAllAlive(cluster);
  ASSERT_EQ(cluster.net().now_us(), kAllAliveUs);
  // s1's beat at 50 ms reaches the coordinator at 51 ms; then s1 dies.
  FaultPlan plan;
  plan.crashes["s1"] = {55'000, -1};
  cluster.net().SetFaultPlan(plan);
  MembershipTracker& members = cluster.coord().membership();
  // The coordinator sweeps every 200 ms (half the suspect timeout): the
  // first sweep more than 400 ms after 51 ms demotes s1 to suspect, the
  // first more than 1200 ms after it to down.
  cluster.RunUntil(
      [&] { return members.StateOf("s1") == MemberState::kSuspect; },
      5'000'000);
  EXPECT_EQ(cluster.net().now_us(), 600'000);
  cluster.RunUntil([&] { return members.StateOf("s1") == MemberState::kDown; },
                   5'000'000);
  EXPECT_EQ(cluster.net().now_us(), 1'400'000);
  EXPECT_EQ(members.StateOf("s2"), MemberState::kAlive);
  EXPECT_EQ(members.StateOf("s3"), MemberState::kAlive);
}

TEST(ClusterSimTest, ShardFetchIsOneRoundTrip) {
  SimCluster cluster(SimConfig(), Bio(), kLatencyUs);
  AwaitAllAlive(cluster);
  // Both shards are fetched in parallel: a table costs one round trip.
  int64_t t = cluster.net().now_us();
  for (const std::string& name : cluster.reference().Names()) {
    auto got = cluster.coord().table_source()->Fetch(name);
    ASSERT_TRUE(got.ok()) << name << ": " << got.status();
    EXPECT_EQ(cluster.net().now_us(), t + 2 * kLatencyUs) << name;
    t = cluster.net().now_us();
  }
  // A cached table costs nothing.
  const std::string first = cluster.reference().Names().front();
  ASSERT_TRUE(cluster.coord().table_source()->Fetch(first).ok());
  EXPECT_EQ(cluster.net().now_us(), t);
}

// The traced cluster-rw invariant (perfbench's
// cluster.attempts_per_shard_fetch), on sim: with no loss every shard
// fetch is answered by its first attempt.
TEST(ClusterSimTest, OneAttemptPerShardFetchWhenLossFree) {
  if constexpr (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  SimCluster cluster(SimConfig(), Bio(), kLatencyUs);
  AwaitAllAlive(cluster);
  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  const uint64_t attempts0 =
      reg.GetCounter("cluster.replica.attempts")->value();
  const uint64_t fetches0 = reg.GetCounter("cluster.shard_fetches")->value();
  ASSERT_NO_FATAL_FAILURE(ExpectTablesMatchReference(cluster));
  const uint64_t fetches =
      reg.GetCounter("cluster.shard_fetches")->value() - fetches0;
  EXPECT_EQ(fetches, cluster.reference().Names().size() * 2);
  EXPECT_EQ(reg.GetCounter("cluster.replica.attempts")->value() - attempts0,
            fetches);
}

// The replica inside the crash window misses three writes, then pulls
// the first at its next repair pass and chains the rest at one round
// trip each.
TEST(ClusterSimTest, RepairChainsACrashedReplicaToTheCommittedVersion) {
  SimCluster cluster(SimConfig(), Bio(), kLatencyUs);
  AwaitAllAlive(cluster);
  // Between its 50 ms and 100 ms ticks the victim has no timer due, so
  // the window costs it only the messages sent to it.
  cluster.AdvanceTo(60'000);
  const std::string victim = cluster.coord().ring()->OwnerForShard(0);
  FaultPlan plan;
  plan.crashes[victim] = {60'500, 90'000};
  cluster.net().SetFaultPlan(plan);
  const std::string table = cluster.reference().Names().front();
  for (int i = 1; i <= 3; ++i) {
    auto report = WriteAndMirror(cluster, table, "x" + std::to_string(i),
                                 "y" + std::to_string(i));
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report.value().sequence, static_cast<uint64_t>(i));
  }
  // Quorum 1: each write commits on the backups' acks, a round trip.
  EXPECT_EQ(cluster.net().now_us(), 66'000);
  EXPECT_TRUE(AtVersion(*cluster.Storage(victim), 0));
  // Restarted at 90 ms, the victim hears the others' versions at 101 ms
  // and pulls at its 200 ms repair pass: three chained round trips.
  cluster.RunUntil([&] { return AtVersion(*cluster.Storage(victim), 3); },
                   5'000'000);
  EXPECT_EQ(cluster.net().now_us(), 206'000);
  ASSERT_NO_FATAL_FAILURE(ExpectTablesMatchReference(cluster));
}

// A join's handoff gate: the joiner holds its gained shards while the
// link that carries its ack is down, and the coordinator keeps the epoch
// pending until the first ack that gets through.
TEST(ClusterSimTest, JoinCommitsOnlyOnTheJoinersHandoffAck) {
  SimCluster cluster(SimConfig(), Bio(), kLatencyUs);
  AwaitAllAlive(cluster);
  cluster.config().nodes.push_back({"s4", NodeRole::kStorage, "sim", 7004});
  ClusterNode* joiner = cluster.AddStorage("s4", Bio());
  ASSERT_NE(joiner, nullptr);
  const int64_t t0 = cluster.net().now_us();
  FaultPlan plan;
  plan.links[{"s4", "coord"}].outages_us = {{t0, t0 + 150'000}};
  cluster.net().SetFaultPlan(plan);
  auto epoch = cluster.coord().StartJoin("s4", "sim:7004");
  ASSERT_TRUE(epoch.ok()) << epoch.status();
  EXPECT_EQ(epoch.value(), 2u);

  // Mid-outage: the joiner learned the pending ring and pulled its
  // shards, but no ack reached the coordinator.
  cluster.AdvanceTo(t0 + 100'000);
  EXPECT_EQ(joiner->pending_epoch(), 2u);
  EXPECT_EQ(cluster.coord().ring_epoch(), 1u);
  EXPECT_EQ(cluster.coord().pending_epoch(), 2u);
  EXPECT_EQ(cluster.coord().HandoffRowsInstalled().count("s4"), 0u);

  // The joiner re-pulls every repair pass (each 100 ms after its
  // start); the pass at t0 + 200 ms is the first after the outage, and
  // its pull and ack take three hops.
  cluster.RunUntil([&] { return cluster.coord().ring_epoch() == 2; },
                   5'000'000);
  EXPECT_EQ(cluster.net().now_us(), t0 + 203'000);
  EXPECT_EQ(cluster.coord().pending_epoch(), 0u);
  const auto installed = cluster.coord().HandoffRowsInstalled();
  ASSERT_EQ(installed.count("s4"), 1u);
  for (const auto& [shard, rows] : installed.at("s4")) {
    EXPECT_GT(rows, 0u) << "shard " << shard;
  }
  ASSERT_NO_FATAL_FAILURE(ExpectTablesMatchReference(cluster));
}

// Every step above in one cluster, as a transcript of virtual times
// that ends with a digest of every message delivered: a run's bytes on
// the wire depend only on its inputs.
std::vector<std::string> RunWholeCluster() {
  std::vector<std::string> log;
  SimCluster cluster(SimConfig(), Bio(), kLatencyUs);
  size_t delivered = 0;
  size_t digest = 0;
  cluster.OnDeliver([&](const Message& msg) {
    ++delivered;
    HashCombine(&digest, wire::EncodeMessage(msg));
  });
  SimNetwork& net = cluster.net();
  ClusterNode& coord = cluster.coord();
  auto note = [&](const std::string& what) {
    log.push_back("t=" + std::to_string(net.now_us()) + " " + what);
  };

  AwaitAllAlive(cluster);
  EXPECT_EQ(net.now_us(), kAllAliveUs);
  note("all alive");

  // Every bio table through ClusterTableSource::Fetch, byte-identical to
  // the local store.
  const int64_t fetched_at = net.now_us();
  ExpectTablesMatchReference(cluster);
  const auto tables =
      static_cast<int64_t>(cluster.reference().Names().size());
  EXPECT_EQ(net.now_us(), fetched_at + tables * 2 * kLatencyUs);
  note("fetched " + std::to_string(tables) + " tables");

  // A curator write through ClusterTableSink::Apply commits while the
  // primary of shard 0 is inside a crash window, and misses it.
  cluster.AdvanceTo(60'000);
  const std::string victim = coord.ring()->OwnerForShard(0);
  FaultPlan crash;
  crash.crashes[victim] = {60'500, 90'000};
  net.SetFaultPlan(crash);
  auto report =
      WriteAndMirror(cluster, cluster.reference().Names().front(), "sx", "sy");
  EXPECT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(net.now_us(), 62'000);
  EXPECT_EQ(coord.table_sink()->committed_sequence(), 1u);
  EXPECT_TRUE(AtVersion(*cluster.Storage(victim), 0));
  note("write seq " + std::to_string(coord.table_sink()->committed_sequence()) +
       " committed; " + victim + " at v0");

  // After the window the replica repairs to the committed version.
  cluster.RunUntil([&] { return AtVersion(*cluster.Storage(victim), 1); },
                   5'000'000);
  EXPECT_EQ(net.now_us(), 202'000);
  note(victim + " repaired to v1");

  // A join commits epoch 2 only on the joiner's handoff ack.
  cluster.config().nodes.push_back({"s4", NodeRole::kStorage, "sim", 7004});
  ClusterNode* joiner = cluster.AddStorage("s4", Bio());
  const int64_t joined_at = net.now_us();
  FaultPlan outage;
  outage.links[{"s4", "coord"}].outages_us = {{joined_at, joined_at + 150'000}};
  net.SetFaultPlan(outage);
  EXPECT_TRUE(coord.StartJoin("s4", "sim:7004").ok());
  cluster.AdvanceTo(joined_at + 100'000);
  EXPECT_EQ(joiner->pending_epoch(), 2u);
  EXPECT_EQ(coord.pending_epoch(), 2u);
  note("join pending; joiner at pending epoch " +
       std::to_string(joiner->pending_epoch()));
  cluster.RunUntil([&] { return coord.ring_epoch() == 2; }, 5'000'000);
  EXPECT_EQ(net.now_us(), joined_at + 203'000);
  std::string shards;
  const auto installed = coord.HandoffRowsInstalled();
  for (const auto& [shard, rows] : installed.at("s4")) {
    shards += " " + std::to_string(shard) + ":" + std::to_string(rows);
  }
  note("epoch 2 committed; s4 installed" + shards);

  ExpectTablesMatchReference(cluster);
  note("fetched every table under epoch 2");
  note("delivered " + std::to_string(delivered) + " messages, digest " +
       std::to_string(digest));
  return log;
}

TEST(ClusterSimTest, WholeClusterRunReplaysIdentically) {
  const std::vector<std::string> first = RunWholeCluster();
  const std::vector<std::string> second = RunWholeCluster();
  EXPECT_EQ(first, second);
  for (const std::string& line : first) std::cout << line << "\n";
}

}  // namespace
}  // namespace cluster
}  // namespace hyperion
