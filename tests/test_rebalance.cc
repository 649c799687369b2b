// Live shard rebalancing, end to end and in process: joining a storage
// node hands it its gained shards' write-log state and commits a new
// ring epoch; decommissioning retires a node only after its shards are
// re-homed; covers stay byte-identical to a single-process replay
// through every transition; and a seeded churn soak interleaves writes,
// queries, joins and decommissions without losing either property.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/cluster_config.h"
#include "cluster/node.h"
#include "cluster/shard_ring.h"
#include "common/random.h"
#include "core/curator.h"
#include "core/mapping_table.h"
#include "obs/metrics.h"
#include "service/catalogs.h"
#include "storage/table_store.h"
#include "test_util.h"

namespace hyperion {
namespace cluster {
namespace {

uint64_t CounterValue(const std::string& name) {
  return obs::MetricRegistry::Default().GetCounter(name)->value();
}

class RebalanceE2ETest : public testing_util::ClusterTest {
 protected:
  // Three storage nodes, sixteen shards, two copies each: enough shards
  // that any joiner lands a non-trivial gained set to pull.
  void StartCluster(uint64_t shard_count = 16) {
    bio_.num_entities = 100;

    seed_.shard_count = shard_count;
    seed_.replication = 2;
    seed_.heartbeat_ms = 50;
    // Data-plane timeouts carry generous headroom: sixteen shards mean
    // an 8x bigger fetch fan-out than the other cluster fixtures, and
    // under TSan (~15x slowdown) tight replica/write timeouts starve the
    // joiner mid-handoff into spurious "unreachable"/"unacked" failures.
    // Timeouts only bound the worst case, so the native run stays fast.
    seed_.suspect_ms = 1000;
    seed_.down_ms = 3000;
    seed_.fetch_timeout_ms = 30'000;
    seed_.replica_timeout_ms = 1500;
    seed_.fetch_attempts = 3;
    seed_.fetch_backoff_ms = 20;
    seed_.write_quorum = 0;  // all alive replicas must ack
    seed_.write_timeout_ms = 10'000;
    seed_.write_attempts = 2;
    seed_.write_backoff_ms = 20;
    seed_.repair_interval_ms = 400;
    seed_.nodes = {{"coord", NodeRole::kCoordinator, "127.0.0.1", 0},
                   {"s1", NodeRole::kStorage, "127.0.0.1", 0},
                   {"s2", NodeRole::kStorage, "127.0.0.1", 0},
                   {"s3", NodeRole::kStorage, "127.0.0.1", 0}};
    ASSERT_NO_FATAL_FAILURE(StartNodes(seed_, bio_, &resolved_));
  }

  // Starts a brand-new storage node (absent from every running node's
  // boot config — exactly the operator `join` flow) and asks the
  // coordinator to fold it into the ring.
  void JoinNode(const std::string& id) {
    uint16_t port = 0;
    ASSERT_NO_FATAL_FAILURE(BindJoiner(id, &port));
    ASSERT_TRUE(storage_.back()->Start().ok());
    ASSERT_NO_FATAL_FAILURE(AskToJoin(id, port));
  }

  // Creates the joining node and binds its listener, but does not start
  // it: until Start() it cannot pull a handoff, so its join cannot
  // commit.
  void BindJoiner(const std::string& id, uint16_t* port) {
    ClusterConfig extended = resolved_;
    extended.nodes.push_back({id, NodeRole::kStorage, "127.0.0.1", 0});
    auto catalog = BuildBioCatalog(bio_);
    ASSERT_TRUE(catalog.ok());
    auto node = ClusterNode::Create(extended, id,
                                    std::move(*catalog.value().store));
    ASSERT_TRUE(node.ok()) << node.status();
    ASSERT_TRUE(node.value()->Bind().ok());
    auto listen_port = node.value()->ListenPort();
    ASSERT_TRUE(listen_port.ok());
    *port = listen_port.value();
    storage_.push_back(std::move(node).value());
  }

  void AskToJoin(const std::string& id, uint16_t port) {
    auto epoch =
        coord_->StartJoin(id, "127.0.0.1:" + std::to_string(port));
    ASSERT_TRUE(epoch.ok()) << epoch.status();
  }

  // Waits for the coordinator to commit `epoch` with no transition in
  // flight; false on timeout.
  bool WaitForStableEpoch(uint64_t epoch, int64_t timeout_us = 60'000'000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(timeout_us);
    while (std::chrono::steady_clock::now() < deadline) {
      if (coord_->ring_epoch() >= epoch && coord_->pending_epoch() == 0) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
  }

  // One curator update through the cluster write path, mirrored into
  // the single-process reference store so every later fetch can be
  // byte-compared.
  void WriteAndMirror(const std::string& table, const std::string& x,
                      const std::string& y) {
    auto fetched = coord_->table_source()->Fetch(table);
    ASSERT_TRUE(fetched.ok()) << fetched.status();
    auto merged = Written(*fetched.value().table, x, y);
    ASSERT_TRUE(merged.ok()) << merged.status();
    auto report = coord_->table_sink()->Apply(merged.value(),
                                              fetched.value().version + 1);
    ASSERT_TRUE(report.ok()) << report.status();
    coord_->table_source()->EvictTable(table);

    auto ref = reference_->GetWithVersion(table);
    ASSERT_TRUE(ref.ok());
    auto ref_merged = Written(*ref.value().table, x, y);
    ASSERT_TRUE(ref_merged.ok());
    ASSERT_TRUE(
        reference_->PutOrReplace(std::move(ref_merged).value()).ok());
  }

  // Every table fetched through the cluster must serialize to the same
  // bytes as the single-process reference.
  void ExpectCoversByteIdentical(const std::string& context) {
    for (const std::string& name : reference_->Names()) {
      auto want = reference_->GetWithVersion(name);
      ASSERT_TRUE(want.ok());
      auto got = coord_->table_source()->Fetch(name);
      ASSERT_TRUE(got.ok()) << context << ": " << name << ": "
                            << got.status();
      EXPECT_EQ(got.value().table->Serialize(),
                want.value().table->Serialize())
          << context << ": " << name;
    }
  }

  static Result<MappingTable> Written(const MappingTable& table,
                                      const std::string& x,
                                      const std::string& y) {
    HYP_ASSIGN_OR_RETURN(
        MappingTable delta,
        MappingTable::Create(table.x_schema(), table.y_schema(),
                             table.name()));
    HYP_RETURN_IF_ERROR(delta.AddPair({Value(x)}, {Value(y)}));
    return MergeUnion(table, delta, table.name());
  }

  BioConfig bio_;
  ClusterConfig seed_;
  ClusterConfig resolved_;
};

TEST_F(RebalanceE2ETest, JoinShipsRowsCommitsEpochAndKeepsCoverBytes) {
  StartCluster();
  ASSERT_EQ(coord_->ring_epoch(), 1u);

  // Seed write-log state so the handoff has rows to ship.
  WriteAndMirror("m5", "joinhugo", "joinswiss");
  WriteAndMirror("m11", "joinswiss", "joinmim");
  ExpectCoversByteIdentical("before join");

  const uint64_t shipped_before =
      CounterValue("cluster.rebalance.rows_shipped");
  JoinNode("s4");
  ASSERT_TRUE(WaitForStableEpoch(2)) << "join transition never committed";

  // The joiner owns shards now, pulled real rows, and every node
  // converged on the new epoch.
  EXPECT_FALSE(coord_->ring()->ShardsOwnedBy("s4").empty());
  // The handoff installed the seeded history: each shard the joiner owns
  // is at the version the two writes left behind.
  ClusterNode* joiner = StorageNode("s4");
  ASSERT_NE(joiner, nullptr);
  for (uint64_t shard : coord_->ring()->ShardsOwnedBy("s4")) {
    EXPECT_GE(joiner->write_log().VersionOf(shard), 2u) << "shard " << shard;
  }
  if constexpr (obs::kMetricsEnabled) {
    EXPECT_GT(CounterValue("cluster.rebalance.rows_shipped"),
              shipped_before);
    EXPECT_GE(CounterValue("cluster.rebalance.committed"), 1u);
  }
  ExpectCoversByteIdentical("after join");

  // A write after the commit replicates to the new owner set and stays
  // byte-identical.
  WriteAndMirror("m5", "afterjoin", "afterjoinswiss");
  ExpectCoversByteIdentical("write after join");
}

TEST_F(RebalanceE2ETest, DecommissionRehomesShardsAndRetiresTheNode) {
  StartCluster();
  WriteAndMirror("m5", "decomhugo", "decomswiss");
  WriteAndMirror("m11", "decomswiss", "decommim");

  const std::string victim = coord_->ring()->OwnerForShard(0);
  auto epoch = coord_->StartDecommission(victim);
  ASSERT_TRUE(epoch.ok()) << epoch.status();
  EXPECT_EQ(epoch.value(), 2u);
  ASSERT_TRUE(WaitForStableEpoch(2))
      << "decommission transition never committed";

  // The victim is out of the committed ring...
  const std::vector<std::string>& nodes = coord_->ring()->storage_nodes();
  EXPECT_TRUE(std::find(nodes.begin(), nodes.end(), victim) == nodes.end());
  // ...and stopping its process afterwards costs nothing: every shard
  // is fully re-homed, covers still byte-identical to the replay.
  StopStorageNode(victim);
  coord_->table_source()->Evict();
  ExpectCoversByteIdentical("after decommission");

  // Writes keep committing against the shrunken owner set.
  WriteAndMirror("m5", "afterdecom", "afterdecomswiss");
  ExpectCoversByteIdentical("write after decommission");
}

TEST_F(RebalanceE2ETest, JoinRefusedWhileTransitionInFlight) {
  StartCluster();
  // s4 starts only after the refusal is checked, so the join cannot
  // commit before the second request, however slow this host is.
  uint16_t port = 0;
  ASSERT_NO_FATAL_FAILURE(BindJoiner("s4", &port));
  ASSERT_NO_FATAL_FAILURE(AskToJoin("s4", port));
  // A second topology change must be refused until the first commits.
  auto refused = coord_->StartDecommission("s1");
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(StorageNode("s4")->Start().ok());
  ASSERT_TRUE(WaitForStableEpoch(2));
  auto now_ok = coord_->StartDecommission("s1");
  EXPECT_TRUE(now_ok.ok()) << now_ok.status();
  ASSERT_TRUE(WaitForStableEpoch(3));
}

TEST_F(RebalanceE2ETest, DecommissionOfUnknownOrLastNodeRefused) {
  StartCluster();
  auto unknown = coord_->StartDecommission("nope");
  EXPECT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  auto join_dup = coord_->StartJoin("s1", "127.0.0.1:1");
  EXPECT_FALSE(join_dup.ok());
}

// Seeded churn soak: random interleavings of curator writes, full-table
// reads, a join and a decommission.  After every topology commit (and
// at the end) each table fetched through the cluster must be
// byte-identical to the single-process replay, and no committed write
// may be lost.  A failure names its seed.
class ChurnSoakTest : public RebalanceE2ETest,
                      public ::testing::WithParamInterface<int> {};

TEST_P(ChurnSoakTest, InterleavedChurnKeepsCoversAndWrites) {
  const int seed = 90000 + GetParam();
  SCOPED_TRACE("reproduce with seed " + std::to_string(seed));
  Rng rng(static_cast<uint64_t>(seed));

  StartCluster();
  const std::vector<std::string> tables = {"m5", "m11"};
  // The registry is process-global and write-failure suites may have run
  // earlier in the same binary — only failures during this soak count.
  const uint64_t failed_before = CounterValue("cluster.write.failed");
  size_t write_id = 0;
  size_t joins = 0;

  // Queue of topology events, consumed at random points in the
  // schedule: one join, then one decommission of an original node.
  const size_t steps = 10 + static_cast<size_t>(rng.Uniform(0, 6));
  for (size_t step = 0; step < steps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const int64_t dice = rng.Uniform(0, 5);
    if (dice <= 2) {
      // Curator write to a random table.
      const std::string& table =
          tables[static_cast<size_t>(rng.Uniform(
              0, static_cast<int64_t>(tables.size()) - 1))];
      const std::string tag = "churn" + std::to_string(write_id++);
      WriteAndMirror(table, tag + "x", tag + "y");
    } else if (dice <= 4) {
      // Read a random table; bytes must match the replay even while a
      // transition is in flight (reads stay on the old owners).
      const std::string& table =
          tables[static_cast<size_t>(rng.Uniform(
              0, static_cast<int64_t>(tables.size()) - 1))];
      auto want = reference_->GetWithVersion(table);
      ASSERT_TRUE(want.ok());
      auto got = coord_->table_source()->Fetch(table);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(got.value().table->Serialize(),
                want.value().table->Serialize())
          << table << " diverged at step " << step;
    } else if (joins == 0) {
      JoinNode("s4");
      ++joins;
      ASSERT_TRUE(WaitForStableEpoch(2)) << "join never committed";
      ExpectCoversByteIdentical("after churn join");
    } else if (joins == 1) {
      const std::string victim = rng.Bernoulli(0.5) ? "s1" : "s2";
      auto epoch = coord_->StartDecommission(victim);
      ASSERT_TRUE(epoch.ok()) << epoch.status();
      ++joins;
      ASSERT_TRUE(WaitForStableEpoch(epoch.value()))
          << "decommission never committed";
      ExpectCoversByteIdentical("after churn decommission");
    }
  }

  // Late joiners in the schedule may never have fired; force both
  // transitions so every soak exercises a full epoch cycle.
  if (joins == 0) {
    JoinNode("s4");
    ASSERT_TRUE(WaitForStableEpoch(2)) << "join never committed";
    ++joins;
  }
  if (joins == 1) {
    auto epoch = coord_->StartDecommission("s1");
    ASSERT_TRUE(epoch.ok()) << epoch.status();
    ASSERT_TRUE(WaitForStableEpoch(epoch.value()))
        << "decommission never committed";
  }

  // End state: every write visible, every table byte-identical.
  coord_->table_source()->Evict();
  ExpectCoversByteIdentical("after churn soak");
  EXPECT_EQ(CounterValue("cluster.write.failed"), failed_before);
}

INSTANTIATE_TEST_SUITE_P(ChurnSeeds, ChurnSoakTest, ::testing::Range(0, 6));

}  // namespace
}  // namespace cluster
}  // namespace hyperion
