// End-to-end tests of the distributed cover protocol: the result reaching
// the initiator must be semantically identical to the centralized
// CoverEngine's cover, across topologies, partition shapes and cache
// sizes.

#include <gtest/gtest.h>

#include "core/containment.h"
#include "core/cover_engine.h"
#include "p2p/network.h"
#include "p2p/discovery.h"
#include "test_util.h"
#include "workload/b2b_network.h"
#include "workload/bio_network.h"

namespace hyperion {
namespace {

// Runs a full session over `workload_peers` and returns the result.
const SessionResult* RunSession(SimNetwork* net, PeerNode* initiator,
                                std::vector<std::string> path,
                                std::vector<Attribute> x_attrs,
                                std::vector<Attribute> y_attrs,
                                const SessionOptions& opts = {}) {
  auto session = initiator->StartCoverSession(std::move(path),
                                              std::move(x_attrs),
                                              std::move(y_attrs), opts);
  EXPECT_TRUE(session.ok()) << session.status();
  if (!session.ok()) return nullptr;
  EXPECT_TRUE(net->Run().ok());
  auto result = initiator->GetResult(session.value());
  EXPECT_TRUE(result.ok());
  if (!result.ok()) return nullptr;
  EXPECT_TRUE(result.value()->done);
  EXPECT_TRUE(result.value()->error.ok()) << result.value()->error;
  return result.value();
}

class BioProtocolTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BioProtocolTest, MatchesCentralizedCoverOnAllSevenPaths) {
  BioConfig config;
  config.num_entities = 120;  // small but non-trivial
  auto workload = BioWorkload::Generate(config);
  ASSERT_TRUE(workload.ok()) << workload.status();
  auto peers = workload.value().BuildPeers();
  ASSERT_TRUE(peers.ok());
  SimNetwork net;
  std::map<std::string, PeerNode*> by_id;
  for (auto& p : peers.value()) {
    ASSERT_TRUE(p->Attach(&net).ok());
    by_id[p->id()] = p.get();
  }

  size_t cache = GetParam();
  for (const auto& dbs : BioWorkload::HugoMimPaths()) {
    SessionOptions opts;
    opts.cache_capacity = cache;
    const SessionResult* result = RunSession(
        &net, by_id.at(dbs.front()), dbs,
        {Attribute::String(BioWorkload::AttrNameOf(dbs.front()))},
        {Attribute::String(BioWorkload::AttrNameOf(dbs.back()))}, opts);
    ASSERT_NE(result, nullptr);

    auto path = workload.value().BuildPath(dbs);
    ASSERT_TRUE(path.ok()) << path.status();
    CoverEngine engine;
    auto central = engine.ComputeCover(
        path.value(), {BioWorkload::AttrNameOf(dbs.front())},
        {BioWorkload::AttrNameOf(dbs.back())});
    ASSERT_TRUE(central.ok()) << central.status();

    auto equivalent = TablesEquivalent(result->cover, central.value());
    ASSERT_TRUE(equivalent.ok()) << equivalent.status();
    EXPECT_TRUE(equivalent.value())
        << "path " << dbs.front() << "->" << dbs.back() << " (" << dbs.size()
        << " peers), cache " << cache << ": distributed "
        << result->cover.size() << " rows vs centralized "
        << central.value().size();
  }
}

INSTANTIATE_TEST_SUITE_P(CacheSizes, BioProtocolTest,
                         ::testing::Values(1, 8, 64, 100000));

TEST(ProtocolTest, B2bMultiPartitionMatchesCentralized) {
  B2bConfig config;
  config.rows_per_table = 60;
  auto workload = B2bWorkload::Generate(config);
  ASSERT_TRUE(workload.ok()) << workload.status();
  auto peers = workload.value().BuildPeers();
  ASSERT_TRUE(peers.ok());
  SimNetwork net;
  for (auto& p : peers.value()) ASSERT_TRUE(p->Attach(&net).ok());

  const SessionResult* result =
      RunSession(&net, peers.value()[0].get(), {"P1", "P2", "P3"},
                 workload.value().XAttrs(), workload.value().YAttrs());
  ASSERT_NE(result, nullptr);
  // Three inferred partitions: names, addresses, and age (middle-start).
  EXPECT_EQ(result->partition_covers.size(), 3u);

  auto path = workload.value().BuildPath();
  ASSERT_TRUE(path.ok());
  CoverEngine engine;
  auto central = engine.ComputeCover(
      path.value(), {"FName", "LName", "AreaCode", "Street"},
      {"Gender", "State", "AgeGroup"});
  ASSERT_TRUE(central.ok()) << central.status();
  // Full equivalence checks on the combined product are expensive (the
  // cover is a Cartesian product of partitions); compare sizes and spot
  // tuples instead.
  EXPECT_EQ(result->cover.size(), central.value().size());
  for (size_t i = 0; i < std::min<size_t>(result->cover.size(), 25); ++i) {
    const Mapping& row = result->cover.rows()[i];
    auto witness = row.PickWitness(result->cover.schema());
    ASSERT_TRUE(witness.has_value());
    EXPECT_TRUE(central.value().SatisfiesTuple(*witness))
        << row.ToString();
  }
}

TEST(ProtocolTest, TwoPeerPathRunsLocally) {
  BioConfig config;
  config.num_entities = 40;
  auto workload = BioWorkload::Generate(config);
  ASSERT_TRUE(workload.ok());
  auto peers = workload.value().BuildPeers();
  ASSERT_TRUE(peers.ok());
  SimNetwork net;
  std::map<std::string, PeerNode*> by_id;
  for (auto& p : peers.value()) {
    ASSERT_TRUE(p->Attach(&net).ok());
    by_id[p->id()] = p.get();
  }
  const SessionResult* result = RunSession(
      &net, by_id.at("Hugo"), {"Hugo", "MIM"},
      {Attribute::String("Hugo_id")}, {Attribute::String("MIM_id")});
  ASSERT_NE(result, nullptr);
  // The two-peer cover is just m6 itself.
  auto m6 = workload.value().tables().at("m6");
  EXPECT_TRUE(TablesEquivalent(result->cover, *m6).value());
}

TEST(ProtocolTest, StreamingDeliversFirstRowBeforeCompletion) {
  BioConfig config;
  config.num_entities = 400;
  auto workload = BioWorkload::Generate(config);
  ASSERT_TRUE(workload.ok());
  auto peers = workload.value().BuildPeers();
  ASSERT_TRUE(peers.ok());
  SimNetwork net;
  std::map<std::string, PeerNode*> by_id;
  for (auto& p : peers.value()) {
    ASSERT_TRUE(p->Attach(&net).ok());
    by_id[p->id()] = p.get();
  }
  SessionOptions opts;
  opts.cache_capacity = 4;  // many small batches => early first row
  const SessionResult* result = RunSession(
      &net, by_id.at("Hugo"),
      {"Hugo", "GDB", "SwissProt", "MIM"}, {Attribute::String("Hugo_id")},
      {Attribute::String("MIM_id")}, opts);
  ASSERT_NE(result, nullptr);
  ASSERT_GT(result->cover.size(), 0u);
  EXPECT_GE(result->stats.first_row_us, 0);
  EXPECT_LT(result->stats.first_row_us, result->stats.complete_us);
  EXPECT_GT(result->stats.rows_received, 0u);
}

TEST(ProtocolTest, CoverBytesDoNotDependOnBatchSize) {
  // Each peer joins every incoming batch against one index over its
  // local tables; how the stream is cut into batches must not change a
  // byte of the cover.
  BioConfig config;
  config.num_entities = 300;
  auto workload = BioWorkload::Generate(config);
  ASSERT_TRUE(workload.ok());
  std::string reference;
  for (size_t cache : {1, 4, 64}) {
    auto peers = workload.value().BuildPeers();
    ASSERT_TRUE(peers.ok());
    SimNetwork net;
    std::map<std::string, PeerNode*> by_id;
    for (auto& p : peers.value()) {
      ASSERT_TRUE(p->Attach(&net).ok());
      by_id[p->id()] = p.get();
    }
    SessionOptions opts;
    opts.cache_capacity = cache;
    const SessionResult* result = RunSession(
        &net, by_id.at("Hugo"), {"Hugo", "GDB", "SwissProt", "MIM"},
        {Attribute::String("Hugo_id")}, {Attribute::String("MIM_id")}, opts);
    ASSERT_NE(result, nullptr);
    // More rows than the largest cache: every run streams many batches.
    ASSERT_GT(result->cover.size(), 64u);
    std::string bytes = result->cover.Serialize();
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << "cache " << cache;
    }
  }
}

TEST(ProtocolTest, LargerCacheMeansFewerMessages) {
  BioConfig config;
  config.num_entities = 300;
  auto workload = BioWorkload::Generate(config);
  ASSERT_TRUE(workload.ok());

  auto run_with_cache = [&](size_t cache) -> uint64_t {
    auto peers = workload.value().BuildPeers();
    EXPECT_TRUE(peers.ok());
    SimNetwork net;
    std::map<std::string, PeerNode*> by_id;
    for (auto& p : peers.value()) {
      EXPECT_TRUE(p->Attach(&net).ok());
      by_id[p->id()] = p.get();
    }
    SessionOptions opts;
    opts.cache_capacity = cache;
    const SessionResult* result = RunSession(
        &net, by_id.at("Hugo"), {"Hugo", "GDB", "MIM"},
        {Attribute::String("Hugo_id")}, {Attribute::String("MIM_id")},
        opts);
    EXPECT_NE(result, nullptr);
    return net.stats().messages_sent;
  };
  uint64_t small_cache_messages = run_with_cache(2);
  uint64_t big_cache_messages = run_with_cache(512);
  EXPECT_GT(small_cache_messages, 2 * big_cache_messages);
}

TEST(ProtocolTest, StartValidation) {
  BioConfig config;
  config.num_entities = 20;
  auto workload = BioWorkload::Generate(config);
  ASSERT_TRUE(workload.ok());
  auto peers = workload.value().BuildPeers();
  ASSERT_TRUE(peers.ok());
  SimNetwork net;
  std::map<std::string, PeerNode*> by_id;
  for (auto& p : peers.value()) {
    ASSERT_TRUE(p->Attach(&net).ok());
    by_id[p->id()] = p.get();
  }
  PeerNode* hugo = by_id.at("Hugo");
  // Too-short path.
  EXPECT_FALSE(hugo->StartCoverSession({"Hugo"},
                                       {Attribute::String("Hugo_id")},
                                       {Attribute::String("MIM_id")})
                   .ok());
  // Initiator must be first on the path.
  EXPECT_FALSE(hugo->StartCoverSession({"GDB", "MIM"},
                                       {Attribute::String("GDB_id")},
                                       {Attribute::String("MIM_id")})
                   .ok());
  // X attribute must belong to the initiator.
  EXPECT_FALSE(hugo->StartCoverSession({"Hugo", "MIM"},
                                       {Attribute::String("GDB_id")},
                                       {Attribute::String("MIM_id")})
                   .ok());
  // Unknown session id.
  EXPECT_FALSE(hugo->GetResult(123456).ok());
}

TEST(ProtocolTest, FreshPeersWithOneNameStartDistinctSessionIds) {
  // A QueryService builds fresh peers for every session it runs, so two
  // sessions started at one initiator name come from two fresh peers.
  MappingTable table =
      MappingTable::Create(Schema::Of({Attribute::String("A_id")}),
                           Schema::Of({Attribute::String("B_id")}), "mAB")
          .value();
  ASSERT_TRUE(table.AddPair({Value("a1")}, {Value("b1")}).ok());
  MappingConstraint mab(std::move(table));
  std::vector<SessionId> ids;
  for (int i = 0; i < 2; ++i) {
    SimNetwork net;
    PeerNode a("A", AttributeSet::Of({Attribute::String("A_id")}));
    PeerNode b("B", AttributeSet::Of({Attribute::String("B_id")}));
    ASSERT_TRUE(a.Attach(&net).ok());
    ASSERT_TRUE(b.Attach(&net).ok());
    ASSERT_TRUE(a.AddConstraintTo("B", mab).ok());
    auto session = a.StartCoverSession({"A", "B"}, {Attribute::String("A_id")},
                                       {Attribute::String("B_id")});
    ASSERT_TRUE(session.ok()) << session.status();
    ASSERT_TRUE(net.Run().ok());
    ids.push_back(session.value());
  }
  EXPECT_NE(ids[0], ids[1]);
  // The high half still names the initiator.
  EXPECT_EQ(ids[0] >> 32, ids[1] >> 32);
}

TEST(ProtocolTest, ConstraintStorageValidation) {
  PeerNode peer("p", AttributeSet::Of({Attribute::String("A")}));
  MappingTable named =
      MappingTable::Create(Schema::Of({Attribute::String("A")}),
                           Schema::Of({Attribute::String("B")}), "m")
          .value();
  ASSERT_TRUE(named.AddPair({Value("x")}, {Value("y")}).ok());
  EXPECT_TRUE(
      peer.AddConstraintTo("q", MappingConstraint(named)).ok());
  // Duplicate name toward the same neighbor.
  EXPECT_FALSE(
      peer.AddConstraintTo("q", MappingConstraint(named)).ok());
  // Unnamed constraint.
  MappingTable unnamed =
      MappingTable::Create(Schema::Of({Attribute::String("A")}),
                           Schema::Of({Attribute::String("B")}))
          .value();
  EXPECT_FALSE(
      peer.AddConstraintTo("q", MappingConstraint(unnamed)).ok());
  // X outside the peer's attributes.
  MappingTable foreign =
      MappingTable::Create(Schema::Of({Attribute::String("Z")}),
                           Schema::Of({Attribute::String("B")}), "f")
          .value();
  EXPECT_FALSE(
      peer.AddConstraintTo("q", MappingConstraint(foreign)).ok());
  EXPECT_EQ(peer.Acquaintances(), (std::vector<std::string>{"q"}));
  EXPECT_EQ(peer.ConstraintsTo("q").size(), 1u);
  EXPECT_TRUE(peer.ConstraintsTo("nobody").empty());
  // Not attached to a network yet.
  EXPECT_FALSE(peer.FloodPing(3).ok());
}

}  // namespace
}  // namespace hyperion
