// The distributed write path: ShardWriteLog monotonicity + persistence,
// replicated curator writes through a full in-process cluster (fan-out,
// quorum, refetched bytes), and anti-entropy repair of a replica that
// was dead while writes committed.

#include "cluster/write_path.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/cluster_config.h"
#include "cluster/node.h"
#include "common/status.h"
#include "core/curator.h"
#include "core/mapping_table.h"
#include "obs/metrics.h"
#include "service/catalogs.h"
#include "storage/table_store.h"
#include "test_util.h"

namespace hyperion {
namespace cluster {
namespace {

WriteSliceMsg LogEntry(uint64_t shard, uint64_t version,
                       const std::string& table = "m5") {
  WriteSliceMsg entry;
  entry.origin = "coord";
  entry.table_name = table;
  entry.shard = shard;
  entry.shard_version = version;
  entry.table_version = version + 10;
  return entry;
}

TEST(ClusterWriteLogTest, AppendIsMonotonicPerShard) {
  ShardWriteLog log;  // memory-only: Open never called
  EXPECT_EQ(log.VersionOf(0), 0u);
  EXPECT_TRUE(log.Versions().empty());

  ASSERT_TRUE(log.Append(LogEntry(0, 1)).ok());
  ASSERT_TRUE(log.Append(LogEntry(0, 2)).ok());
  ASSERT_TRUE(log.Append(LogEntry(1, 1)).ok());
  EXPECT_EQ(log.VersionOf(0), 2u);
  EXPECT_EQ(log.VersionOf(1), 1u);
  EXPECT_EQ(log.Versions(),
            (std::vector<std::pair<uint64_t, uint64_t>>{{0, 2}, {1, 1}}));

  // At or below the current version is refused (a replay would fork
  // history); a gap is legal — it holds sequences burned by failed
  // writes, which no log anywhere ever held.
  EXPECT_FALSE(log.Append(LogEntry(0, 2)).ok());  // duplicate
  EXPECT_FALSE(log.Append(LogEntry(0, 1)).ok());  // regression
  ASSERT_TRUE(log.Append(LogEntry(0, 4)).ok());   // gap: seq 3 burned
  EXPECT_EQ(log.VersionOf(0), 4u);

  auto entry = log.EntryAt(0, 2);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry.value().table_name, "m5");
  EXPECT_EQ(entry.value().table_version, 12u);
  EXPECT_EQ(log.EntryAt(0, 3).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(log.EntryAt(7, 1).status().code(), StatusCode::kNotFound);

  // EntryAfter is what repair serves: the oldest entry strictly above
  // the requester's version, stepping over the burned hole at 3.
  auto after = log.EntryAfter(0, 2);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().shard_version, 4u);
  EXPECT_EQ(log.EntryAfter(0, 0).value().shard_version, 1u);
  EXPECT_EQ(log.EntryAfter(0, 4).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(log.EntryAfter(7, 0).status().code(), StatusCode::kNotFound);
}

TEST(ClusterWriteLogTest, PersistsAcrossReopenAndToleratesTornTail) {
  const std::string dir = ::testing::TempDir() + "write_log_reopen";
  std::filesystem::remove_all(dir);  // TempDir persists across runs
  {
    ShardWriteLog log;
    ASSERT_TRUE(log.Open(dir, /*shard_count=*/2).ok());
    ASSERT_TRUE(log.Append(LogEntry(0, 1)).ok());
    ASSERT_TRUE(log.Append(LogEntry(0, 2)).ok());
    ASSERT_TRUE(log.Append(LogEntry(1, 1)).ok());
  }
  // A crash mid-append leaves a torn frame at the tail; loading must
  // keep every complete entry and ignore the fragment.
  {
    std::ofstream out(dir + "/shard_0.log",
                      std::ios::app | std::ios::binary);
    out.write("\x03\x01", 2);  // shorter than a frame header
  }
  ShardWriteLog reopened;
  ASSERT_TRUE(reopened.Open(dir, 2).ok());
  EXPECT_EQ(reopened.VersionOf(0), 2u);
  EXPECT_EQ(reopened.VersionOf(1), 1u);
  auto entry = reopened.EntryAt(0, 2);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry.value().table_name, "m5");
  EXPECT_EQ(entry.value().shard_version, 2u);

  // The reopened log resumes exactly where the crash left it: replays
  // still refused, gapped appends (burned sequences) still legal.
  ASSERT_TRUE(reopened.Append(LogEntry(0, 3)).ok());
  EXPECT_FALSE(reopened.Append(LogEntry(1, 1)).ok());  // replay after reopen
  ASSERT_TRUE(reopened.Append(LogEntry(1, 3)).ok());   // gap: seq 2 burned

  ShardWriteLog third;
  ASSERT_TRUE(third.Open(dir, 2).ok());
  EXPECT_EQ(third.VersionOf(0), 3u);
  EXPECT_EQ(third.VersionOf(1), 3u);
  // The hole persists too: repair steps from 1 straight to 3.
  EXPECT_EQ(third.EntryAfter(1, 1).value().shard_version, 3u);
}

// A slice carrying rows: ground cells, shared variables and an
// exclusion set, at the given original row positions.
WriteSliceMsg SliceWithRows(uint64_t shard, uint64_t version) {
  WriteSliceMsg entry = LogEntry(shard, version);
  entry.total_rows = 9;
  entry.committed_floor = version - 1;
  entry.x_schema = Schema::Of({Attribute::String("Hugo_id")});
  entry.y_schema = Schema::Of({Attribute::String("MIM_id")});
  entry.row_indices = {1, 4, 8};
  entry.rows = {
      Mapping::FromTuple({Value("HUGO:" + std::to_string(version)),
                          Value("MIM:1")}),
      Mapping({Cell::Variable(0), Cell::Variable(0)}),
      Mapping({Cell::Variable(0, {Value("HUGO:1"), Value("HUGO:2")}),
               Cell::Constant(Value("MIM:9"))}),
  };
  return entry;
}

void ExpectSameSlice(const WriteSliceMsg& got, const WriteSliceMsg& want) {
  EXPECT_EQ(got.shard, want.shard);
  EXPECT_EQ(got.shard_version, want.shard_version);
  EXPECT_EQ(got.committed_floor, want.committed_floor);
  EXPECT_EQ(got.table_version, want.table_version);
  EXPECT_EQ(got.total_rows, want.total_rows);
  EXPECT_EQ(got.x_schema, want.x_schema);
  EXPECT_EQ(got.y_schema, want.y_schema);
  EXPECT_EQ(got.row_indices, want.row_indices);
  ASSERT_EQ(got.rows.size(), want.rows.size());
  for (size_t i = 0; i < got.rows.size(); ++i) {
    EXPECT_EQ(got.rows[i], want.rows[i]) << "row " << i << ": "
                                         << got.rows[i].ToString();
  }
}

TEST(ClusterWriteLogTest, EntriesReturnTheAppendedSliceRowForRow) {
  // Entries live in memory as their wire encoding; EntryAt and
  // EntryAfter decode them back to exactly the appended slice.
  ShardWriteLog memory_only;
  ASSERT_TRUE(memory_only.Append(SliceWithRows(0, 1)).ok());
  ASSERT_TRUE(memory_only.Append(SliceWithRows(0, 3)).ok());
  ExpectSameSlice(memory_only.EntryAt(0, 1).value(), SliceWithRows(0, 1));
  ExpectSameSlice(memory_only.EntryAfter(0, 1).value(), SliceWithRows(0, 3));

  const std::string dir = ::testing::TempDir() + "write_log_rows";
  std::filesystem::remove_all(dir);
  {
    ShardWriteLog log;
    ASSERT_TRUE(log.Open(dir, /*shard_count=*/2).ok());
    ASSERT_TRUE(log.Append(SliceWithRows(1, 2)).ok());
    ASSERT_TRUE(log.Append(SliceWithRows(1, 5)).ok());
    ExpectSameSlice(log.EntryAt(1, 5).value(), SliceWithRows(1, 5));
  }
  ShardWriteLog reopened;
  ASSERT_TRUE(reopened.Open(dir, 2).ok());
  ExpectSameSlice(reopened.EntryAt(1, 2).value(), SliceWithRows(1, 2));
  ExpectSameSlice(reopened.EntryAfter(1, 2).value(), SliceWithRows(1, 5));
  ExpectSameSlice(reopened.EntryAfter(1, 0).value(), SliceWithRows(1, 2));
}

TEST(ClusterWriteLogTest, UnreadableLogFailsOpenInsteadOfActingEmpty) {
  // Regression: Open used to treat ANY unopenable shard log as "no
  // entries persisted yet" and come up empty.  Only ENOENT may mean
  // that; a log that exists but cannot be read must fail loudly —
  // otherwise a replica restarts from nothing, re-serves state anti-
  // entropy believes it already holds, and the divergence is silent.
  // A directory squatting on the log path is the fault injectable
  // without privileges (chmod tricks are void when tests run as root).
  const std::string dir = ::testing::TempDir() + "write_log_unreadable";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir + "/shard_0.log");

  ShardWriteLog log;
  Status opened = log.Open(dir, /*shard_count=*/2);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.code(), StatusCode::kIoError);
  EXPECT_NE(opened.message().find("shard_0.log"), std::string::npos)
      << opened;

  // A genuinely absent log is still fine: shard 1 has no file at all
  // and Open of a directory holding only that must succeed.
  std::filesystem::remove_all(dir + "/shard_0.log");
  ShardWriteLog fresh;
  EXPECT_TRUE(fresh.Open(dir, 2).ok());
}

// --- in-process cluster with the write path enabled ----------------------

class ClusterWriteE2ETest : public testing_util::ClusterTest {
 protected:
  // Three storage nodes, two copies of every shard, fast heartbeats and
  // a 100 ms anti-entropy period so repair converges in test time.
  void StartWriteCluster(uint64_t write_quorum) {
    bio_.num_entities = 100;

    seed_.shard_count = 2;
    seed_.replication = 2;
    seed_.heartbeat_ms = 50;
    seed_.suspect_ms = 400;
    seed_.down_ms = 1200;
    seed_.fetch_timeout_ms = 10'000;
    seed_.replica_timeout_ms = 250;
    seed_.fetch_attempts = 2;
    seed_.fetch_backoff_ms = 20;
    seed_.write_quorum = write_quorum;
    seed_.write_timeout_ms = 3000;
    seed_.write_attempts = 2;
    seed_.write_backoff_ms = 20;
    seed_.repair_interval_ms = 100;
    seed_.nodes = {{"coord", NodeRole::kCoordinator, "127.0.0.1", 0},
                   {"s1", NodeRole::kStorage, "127.0.0.1", 0},
                   {"s2", NodeRole::kStorage, "127.0.0.1", 0},
                   {"s3", NodeRole::kStorage, "127.0.0.1", 0}};
    ASSERT_NO_FATAL_FAILURE(StartNodes(seed_, bio_, &resolved_));
  }

  // Replaces the stopped `node` with a fresh incarnation on a new
  // ephemeral port — an empty write log, like a process that lost its
  // disk — and tells every survivor the new address.
  void RestartStorageNode(const std::string& node) {
    ClusterConfig restart = resolved_;
    for (auto& spec : restart.nodes) {
      if (spec.id == node) spec.port = 0;
    }
    auto catalog = BuildBioCatalog(bio_);
    ASSERT_TRUE(catalog.ok());
    auto fresh =
        ClusterNode::Create(restart, node, std::move(*catalog.value().store));
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    ASSERT_TRUE(fresh.value()->Bind().ok());
    auto port = fresh.value()->ListenPort();
    ASSERT_TRUE(port.ok());
    ASSERT_TRUE(fresh.value()->Start().ok());
    const std::string addr = "127.0.0.1:" + std::to_string(port.value());
    coord_->SetPeerAddress(node, addr);
    for (auto& storage : storage_) {
      if (storage->self().id == node) {
        storage = std::move(fresh).value();
      } else {
        storage->SetPeerAddress(node, addr);
      }
    }
  }

  // One curator update: the post-write table with (x, y) unioned in.
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

TEST_F(ClusterWriteE2ETest, ReplicatedWriteIsVisibleInRefetchedTable) {
  StartWriteCluster(/*write_quorum=*/0);  // all-alive
  const std::string name = reference_->Names().front();
  auto fetched = coord_->table_source()->Fetch(name);
  ASSERT_TRUE(fetched.ok()) << fetched.status();

  auto merged = Written(*fetched.value().table, "writx", "writy");
  ASSERT_TRUE(merged.ok()) << merged.status();
  auto report = coord_->table_sink()->Apply(merged.value(),
                                            fetched.value().version + 1);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report.value().sequence, 1u);
  // All-alive quorum with everyone up: 2 shards × 2 replicas, every
  // target must have acked before the commit.
  EXPECT_EQ(report.value().acks, 4u);
  EXPECT_TRUE(report.value().lagging.empty());
  EXPECT_EQ(coord_->table_sink()->sequence(), 1u);

  // Every replica applied the write, both shards in lockstep.
  for (const auto& storage : storage_) {
    for (uint64_t shard : storage->owned_shards()) {
      EXPECT_EQ(storage->write_log().VersionOf(shard), 1u)
          << storage->self().id << " shard " << shard;
    }
  }

  // The refetched table is the post-write table, byte for byte, at the
  // version the write stamped.
  coord_->table_source()->EvictTable(name);
  auto again = coord_->table_source()->Fetch(name);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again.value().version, fetched.value().version + 1);
  EXPECT_EQ(again.value().table->Serialize(), merged.value().Serialize());

  // A second write continues the sequence.
  auto twice = Written(merged.value(), "writx2", "writy2");
  ASSERT_TRUE(twice.ok());
  auto second = coord_->table_sink()->Apply(twice.value(),
                                            fetched.value().version + 2);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second.value().sequence, 2u);
}

TEST_F(ClusterWriteE2ETest, QuorumShortfallFailsNamingTheDeadReplica) {
  StartWriteCluster(/*write_quorum=*/2);
  const std::string name = reference_->Names().front();
  auto fetched = coord_->table_source()->Fetch(name);
  ASSERT_TRUE(fetched.ok()) << fetched.status();

  // Kill one replica of shard 0: a quorum of 2 can never be met there.
  const std::string victim = coord_->ring()->OwnerForShard(0);
  StopStorageNode(victim);

  auto merged = Written(*fetched.value().table, "writx", "writy");
  ASSERT_TRUE(merged.ok());
  auto report = coord_->table_sink()->Apply(merged.value(),
                                            fetched.value().version + 1);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kUnavailable)
      << report.status();
  EXPECT_NE(report.status().message().find("'" + victim + "'"),
            std::string::npos)
      << "error does not name the dead replica: " << report.status();
}

TEST_F(ClusterWriteE2ETest, FailedWriteBurnsItsSequence) {
  StartWriteCluster(/*write_quorum=*/2);
  const std::string name = reference_->Names().front();
  auto fetched = coord_->table_source()->Fetch(name);
  ASSERT_TRUE(fetched.ok()) << fetched.status();

  // Kill one replica of shard 0: quorum 2 cannot be met there and the
  // write fails — but shard 1's replicas (and shard 0's survivor) may
  // already have applied its slices before the verdict.
  const std::string victim = coord_->ring()->OwnerForShard(0);
  StopStorageNode(victim);
  auto aborted = Written(*fetched.value().table, "lostx", "losty");
  ASSERT_TRUE(aborted.ok());
  auto report = coord_->table_sink()->Apply(aborted.value(),
                                            fetched.value().version + 1);
  ASSERT_FALSE(report.ok());
  // The failed write's sequence is burned, never committed.
  EXPECT_EQ(coord_->table_sink()->sequence(), 1u);
  EXPECT_EQ(coord_->table_sink()->committed_sequence(), 0u);

  // Revive the victim and run a DIFFERENT write.  It must ship under a
  // fresh sequence: reusing the burned one would let every replica that
  // applied the aborted slices ack this write as a "duplicate" while
  // still serving the aborted rows — divergence no version comparison
  // could ever see.
  RestartStorageNode(victim);
  ASSERT_TRUE(coord_->WaitAllAlive(15'000'000));
  auto merged = Written(*fetched.value().table, "keptx", "kepty");
  ASSERT_TRUE(merged.ok());
  auto second = coord_->table_sink()->Apply(merged.value(),
                                            fetched.value().version + 1);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second.value().sequence, 2u);
  EXPECT_EQ(coord_->table_sink()->committed_sequence(), 2u);

  // Every replica converges on the committed write's sequence — the
  // revived node jumps the burned hole via the committed floor — and
  // serves its bytes, not the aborted write's.
  for (const auto& storage : storage_) {
    for (uint64_t shard : storage->owned_shards()) {
      EXPECT_EQ(storage->write_log().VersionOf(shard), 2u)
          << storage->self().id << " shard " << shard;
    }
  }
  coord_->table_source()->Evict();
  auto again = coord_->table_source()->Fetch(name);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again.value().version, fetched.value().version + 1);
  EXPECT_EQ(again.value().table->Serialize(), merged.value().Serialize());
}

TEST_F(ClusterWriteE2ETest, ConcurrentAppliesGetDistinctSequences) {
  StartWriteCluster(/*write_quorum=*/0);
  const auto names = reference_->Names();
  ASSERT_GE(names.size(), 2u);

  // Two writer threads, two tables: the sink serializes them, so each
  // write mints its own sequence instead of racing for the same one.
  Result<VersionedTable> fetched[2] = {coord_->table_source()->Fetch(names[0]),
                                       coord_->table_source()->Fetch(names[1])};
  Result<MappingTable> written[2] = {
      Status::Internal("unset"), Status::Internal("unset")};
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(fetched[i].ok()) << fetched[i].status();
    written[i] = Written(*fetched[i].value().table, "conx", "cony");
    ASSERT_TRUE(written[i].ok()) << written[i].status();
  }
  Result<ClusterTableSink::WriteReport> reports[2] = {
      Status::Internal("unset"), Status::Internal("unset")};
  std::thread writers[2];
  for (int i = 0; i < 2; ++i) {
    writers[i] = std::thread([&, i] {
      reports[i] = coord_->table_sink()->Apply(
          written[i].value(), fetched[i].value().version + 1);
    });
  }
  for (auto& writer : writers) writer.join();

  ASSERT_TRUE(reports[0].ok()) << reports[0].status();
  ASSERT_TRUE(reports[1].ok()) << reports[1].status();
  std::vector<uint64_t> seqs = {reports[0].value().sequence,
                                reports[1].value().sequence};
  std::sort(seqs.begin(), seqs.end());
  EXPECT_EQ(seqs, (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(coord_->table_sink()->committed_sequence(), 2u);
}

// --- anti-entropy repair --------------------------------------------------

using RepairE2ETest = ClusterWriteE2ETest;

TEST_F(RepairE2ETest, AntiEntropyConvergesARestartedReplica) {
  StartWriteCluster(/*write_quorum=*/1);
  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  const uint64_t repaired0 =
      reg.GetCounter("cluster.repair.entries_applied")->value();
  const std::string name = reference_->Names().front();
  auto fetched = coord_->table_source()->Fetch(name);
  ASSERT_TRUE(fetched.ok()) << fetched.status();

  // Write 1 lands everywhere; then the shard-0 primary dies and write 2
  // commits off the surviving replicas under quorum 1.
  auto once = Written(*fetched.value().table, "writx1", "writy1");
  ASSERT_TRUE(once.ok());
  auto first = coord_->table_sink()->Apply(once.value(),
                                           fetched.value().version + 1);
  ASSERT_TRUE(first.ok()) << first.status();

  const std::string victim = coord_->ring()->OwnerForShard(0);
  StopStorageNode(victim);

  auto twice = Written(once.value(), "writx2", "writy2");
  ASSERT_TRUE(twice.ok());
  auto second = coord_->table_sink()->Apply(twice.value(),
                                            fetched.value().version + 2);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second.value().sequence, 2u);
  // The dead replica is exactly what the commit left behind.
  EXPECT_EQ(std::count(second.value().lagging.begin(),
                       second.value().lagging.end(), victim),
            1);

  // Restart the victim empty: peer heartbeats advertise v2, so the
  // anti-entropy loop must pull both missed writes for every shard it
  // owns — with no coordinator involvement at all.
  RestartStorageNode(victim);
  ClusterNode* revived = StorageNode(victim);
  ASSERT_NE(revived, nullptr);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  for (;;) {
    bool converged = true;
    for (uint64_t shard : revived->owned_shards()) {
      if (revived->write_log().VersionOf(shard) < 2) converged = false;
    }
    if (converged) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << victim << " never converged via anti-entropy";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  // Both writes were pulled and applied to every shard the victim owns.
  for (uint64_t shard : revived->owned_shards()) {
    EXPECT_EQ(revived->write_log().VersionOf(shard), 2u) << "shard " << shard;
    EXPECT_TRUE(revived->write_log().EntryAt(shard, 1).ok()) << shard;
    EXPECT_TRUE(revived->write_log().EntryAt(shard, 2).ok()) << shard;
  }
  if constexpr (obs::kMetricsEnabled) {
    EXPECT_GE(reg.GetCounter("cluster.repair.entries_applied")->value(),
              repaired0 + 2 * revived->owned_shards().size());
  }

  // Proof the repaired slices serve reads: lose the *other* replica of
  // shard 0, so the refetch must assemble from the revived node — and
  // the bytes must be the post-write-2 table.
  for (const std::string& owner : coord_->ring()->OwnersForShard(0)) {
    if (owner != victim) StopStorageNode(owner);
  }
  coord_->table_source()->Evict();
  auto again = coord_->table_source()->Fetch(name);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again.value().version, fetched.value().version + 2);
  EXPECT_EQ(again.value().table->Serialize(), twice.value().Serialize());
}

}  // namespace
}  // namespace cluster
}  // namespace hyperion
