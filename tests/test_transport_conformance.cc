// Cross-transport conformance: the distributed cover protocol must
// behave identically on both Network implementations — the
// single-threaded simulator and real loopback TCP sockets.  Each
// scenario replays one session on both transports and asserts
// byte-identical covers (or matching terminal status codes when the
// scenario is built to fail loudly).
//
// The second half is a randomized differential harness: seeded random
// topologies, and a query-service interleaving of curator writes and
// queries, replayed on SimNetwork vs TcpNetwork with the failing seed
// printed on any mismatch.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "p2p/network.h"
#include "p2p/peer.h"
#include "p2p/tcp_network.h"
#include "service/catalogs.h"
#include "service/query_service.h"
#include "test_util.h"
#include "workload/bio_network.h"

namespace hyperion {
namespace {

using testing_util::FiniteAttr;
using testing_util::RandomCell;

enum class Transport { kSim, kTcp };
constexpr Transport kAllTransports[] = {Transport::kSim, Transport::kTcp};

const char* Name(Transport t) {
  switch (t) {
    case Transport::kSim:
      return "sim";
    case Transport::kTcp:
      return "tcp";
  }
  return "?";
}

// Everything needed to replay one cover session on a fresh network.
// `build_peers` must return an identical peer set on every call so the
// transports see the same topology and tables.
struct Scenario {
  std::function<std::vector<std::unique_ptr<PeerNode>>()> build_peers;
  std::vector<std::string> path;
  std::vector<Attribute> x_attrs;
  std::vector<Attribute> y_attrs;
  SessionOptions opts;
  FaultPlan faults;
};

struct Outcome {
  bool done = false;
  Status error = Status::OK();
  std::string cover;  // MappingTable::Serialize(); empty on failure
  size_t rows = 0;
  size_t partitions = 0;
  NetworkStats net;
};

Outcome RunOn(Transport transport, const Scenario& s) {
  std::unique_ptr<SimNetwork> sim;
  std::unique_ptr<TcpNetwork> tcp;
  Network* net = nullptr;
  std::function<Result<int64_t>()> run;
  switch (transport) {
    case Transport::kSim:
      sim = std::make_unique<SimNetwork>();
      net = sim.get();
      run = [&sim] { return sim->Run(); };
      break;
    case Transport::kTcp:
      tcp = std::make_unique<TcpNetwork>();
      net = tcp.get();
      run = [&tcp] { return tcp->Run(); };
      break;
  }
  if (!s.faults.empty()) net->SetFaultPlan(s.faults);

  Outcome out;
  auto peers = s.build_peers();
  std::map<std::string, PeerNode*> by_id;
  for (auto& p : peers) {
    EXPECT_TRUE(p->Attach(net).ok());
    by_id[p->id()] = p.get();
  }
  auto session = by_id.at(s.path.front())
                     ->StartCoverSession(s.path, s.x_attrs, s.y_attrs, s.opts);
  EXPECT_TRUE(session.ok()) << Name(transport) << ": " << session.status();
  if (!session.ok()) return out;
  auto end = run();
  EXPECT_TRUE(end.ok()) << Name(transport) << ": " << end.status();
  if (!end.ok()) return out;
  out.net = net->stats();
  auto result = by_id.at(s.path.front())->GetResult(session.value());
  EXPECT_TRUE(result.ok()) << Name(transport) << ": " << result.status();
  if (!result.ok()) return out;
  out.done = result.value()->done;
  out.error = result.value()->error;
  out.partitions = result.value()->partition_covers.size();
  if (out.error.ok()) {
    out.cover = result.value()->cover.Serialize();
    out.rows = result.value()->cover.size();
  }
  return out;
}

// Runs `s` on sim and tcp and asserts the sim outcome is reproduced on
// tcp: same termination, same status code, and (on success) the
// byte-identical cover.
Outcome ExpectConformance(const Scenario& s, bool expect_ok = true) {
  Outcome reference = RunOn(Transport::kSim, s);
  EXPECT_TRUE(reference.done) << "sim session did not terminate";
  EXPECT_EQ(reference.error.ok(), expect_ok) << reference.error;
  Outcome got = RunOn(Transport::kTcp, s);
  EXPECT_TRUE(got.done) << "tcp session did not terminate";
  EXPECT_EQ(got.error.code(), reference.error.code())
      << "tcp: " << got.error << " vs sim: " << reference.error;
  EXPECT_EQ(got.partitions, reference.partitions) << "tcp";
  EXPECT_EQ(got.cover, reference.cover)
      << "tcp cover diverged from sim (" << got.rows << " vs "
      << reference.rows << " rows)";
  return reference;
}

// Keeps retransmissions cheap in wall-clock time: the TCP transport
// pays these timeouts for real.
SessionOptions FastRetransmits() {
  SessionOptions opts;
  opts.retransmit_timeout_us = 15'000;
  return opts;
}

// ---- bio-workload scenarios --------------------------------------------

std::shared_ptr<BioWorkload> SharedBio(size_t entities) {
  BioConfig config;
  config.num_entities = entities;
  auto workload = BioWorkload::Generate(config);
  EXPECT_TRUE(workload.ok());
  return std::make_shared<BioWorkload>(std::move(workload).value());
}

Scenario BioScenario(std::shared_ptr<BioWorkload> workload,
                     std::vector<std::string> path) {
  Scenario s;
  s.build_peers = [workload] { return workload->BuildPeers().value(); };
  s.path = std::move(path);
  s.x_attrs = {Attribute::String("Hugo_id")};
  s.y_attrs = {Attribute::String("MIM_id")};
  s.opts = FastRetransmits();
  return s;
}

const std::vector<std::string> kFivePeerPath = {"Hugo", "Locus", "GDB",
                                                "SwissProt", "MIM"};

TEST(TransportConformanceTest, TwoPeerDirectHop) {
  Scenario s = BioScenario(SharedBio(100), {"Hugo", "MIM"});
  Outcome ref = ExpectConformance(s);
  EXPECT_GT(ref.rows, 0u);
}

TEST(TransportConformanceTest, FivePeerChain) {
  Scenario s = BioScenario(SharedBio(120), kFivePeerPath);
  Outcome ref = ExpectConformance(s);
  EXPECT_GT(ref.rows, 0u);
}

TEST(TransportConformanceTest, SemijoinFilteredChain) {
  Scenario s = BioScenario(SharedBio(120), kFivePeerPath);
  s.opts.semijoin_filters = true;
  Outcome ref = ExpectConformance(s);
  EXPECT_GT(ref.rows, 0u);
}

TEST(TransportConformanceTest, DegenerateCacheFlushesEveryMapping) {
  Scenario s = BioScenario(SharedBio(80), {"Hugo", "GDB", "MIM"});
  s.opts.cache_capacity = 0;
  Outcome ref = ExpectConformance(s);
  EXPECT_GT(ref.rows, 0u);
}

// ---- hand-built topologies ---------------------------------------------

// Two independent attribute chains through the same three peers: the
// cover decomposes into two partitions whose product the initiator must
// assemble identically on every transport.
Scenario MultiPartitionScenario() {
  auto build = [] {
    std::vector<std::unique_ptr<PeerNode>> peers;
    std::vector<std::vector<Attribute>> attrs = {
        {FiniteAttr("A0", 3), FiniteAttr("B0", 3)},
        {FiniteAttr("A1", 3), FiniteAttr("B1", 3)},
        {FiniteAttr("A2", 3), FiniteAttr("B2", 3)},
    };
    for (size_t p = 0; p < attrs.size(); ++p) {
      peers.push_back(std::make_unique<PeerNode>("peer" + std::to_string(p),
                                                 AttributeSet(attrs[p])));
    }
    auto add_pairs =
        [&](size_t hop, const std::string& x, const std::string& y,
            const std::vector<std::pair<std::string, std::string>>& pairs) {
          auto table = MappingTable::Create(
              Schema::Of({FiniteAttr(x, 3)}), Schema::Of({FiniteAttr(y, 3)}),
              x + "_" + y);
          EXPECT_TRUE(table.ok());
          for (const auto& [vx, vy] : pairs) {
            EXPECT_TRUE(
                table.value().AddPair({Value(vx)}, {Value(vy)}).ok());
          }
          EXPECT_TRUE(peers[hop]
                          ->AddConstraintTo(
                              peers[hop + 1]->id(),
                              MappingConstraint(std::move(table).value()))
                          .ok());
        };
    add_pairs(0, "A0", "A1", {{"a", "a"}, {"b", "b"}, {"c", "a"}});
    add_pairs(0, "B0", "B1", {{"a", "c"}, {"c", "a"}});
    add_pairs(1, "A1", "A2", {{"a", "b"}, {"b", "c"}});
    add_pairs(1, "B1", "B2", {{"c", "b"}, {"a", "a"}, {"b", "b"}});
    return peers;
  };
  Scenario s;
  s.build_peers = build;
  s.path = {"peer0", "peer1", "peer2"};
  s.x_attrs = {FiniteAttr("A0", 3), FiniteAttr("B0", 3)};
  s.y_attrs = {FiniteAttr("A2", 3), FiniteAttr("B2", 3)};
  s.opts = FastRetransmits();
  return s;
}

TEST(TransportConformanceTest, MultiPartitionCoverAssemblesIdentically) {
  Outcome ref = ExpectConformance(MultiPartitionScenario());
  EXPECT_EQ(ref.partitions, 2u);
  EXPECT_GT(ref.rows, 0u);
}

// Covers carrying restricted variables (exclusion sets) must serialize
// identically: the wire codec and every transport must preserve
// variables, identity links, and exclusions bit-for-bit.
Scenario RestrictedVariableScenario() {
  auto build = [] {
    std::vector<std::unique_ptr<PeerNode>> peers;
    for (size_t p = 0; p < 3; ++p) {
      peers.push_back(std::make_unique<PeerNode>(
          "peer" + std::to_string(p),
          AttributeSet::Of({FiniteAttr("V" + std::to_string(p), 4)})));
    }
    auto add_table = [&](size_t hop, std::vector<Mapping> rows) {
      auto table = MappingTable::Create(
          Schema::Of({FiniteAttr("V" + std::to_string(hop), 4)}),
          Schema::Of({FiniteAttr("V" + std::to_string(hop + 1), 4)}),
          "t" + std::to_string(hop));
      EXPECT_TRUE(table.ok());
      for (Mapping& row : rows) {
        EXPECT_TRUE(table.value().AddRow(std::move(row)).ok());
      }
      EXPECT_TRUE(
          peers[hop]
              ->AddConstraintTo(peers[hop + 1]->id(),
                                MappingConstraint(std::move(table).value()))
              .ok());
    };
    // V0 == V1 with V0 != a; and b -> anything but {c, d}.
    add_table(0, {Mapping({Cell::Variable(0, {Value("a")}),
                           Cell::Variable(0)}),
                  Mapping({Cell::Constant(Value("b")),
                           Cell::Variable(0, {Value("c"), Value("d")})})});
    // V1 == V2 unrestricted; and c -> a.
    add_table(1, {Mapping({Cell::Variable(0), Cell::Variable(0)}),
                  Mapping({Cell::Constant(Value("c")),
                           Cell::Constant(Value("a"))})});
    return peers;
  };
  Scenario s;
  s.build_peers = build;
  s.path = {"peer0", "peer1", "peer2"};
  s.x_attrs = {FiniteAttr("V0", 4)};
  s.y_attrs = {FiniteAttr("V2", 4)};
  s.opts = FastRetransmits();
  return s;
}

TEST(TransportConformanceTest, RestrictedVariablesSurviveEveryTransport) {
  Outcome ref = ExpectConformance(RestrictedVariableScenario());
  EXPECT_GT(ref.rows, 0u);
}

// ---- faults ------------------------------------------------------------

TEST(TransportConformanceTest, LossyLinksStillProduceIdenticalCovers) {
  std::shared_ptr<BioWorkload> workload = SharedBio(120);
  Scenario clean = BioScenario(workload, kFivePeerPath);
  Outcome baseline = RunOn(Transport::kSim, clean);
  ASSERT_TRUE(baseline.done);
  ASSERT_TRUE(baseline.error.ok()) << baseline.error;
  ASSERT_FALSE(baseline.cover.empty());

  for (double loss : {0.10, 0.20}) {
    Scenario s = BioScenario(workload, kFivePeerPath);
    s.faults.seed = 17;
    s.faults.default_link.drop_rate = loss;
    s.faults.default_link.dup_rate = loss / 2;
    s.faults.default_link.delay_jitter_us = 3'000;
    for (Transport t : kAllTransports) {
      Outcome got = RunOn(t, s);
      ASSERT_TRUE(got.done)
          << Name(t) << " did not terminate at loss " << loss;
      ASSERT_TRUE(got.error.ok())
          << Name(t) << " at loss " << loss << ": " << got.error;
      EXPECT_GT(got.net.drops_injected, 0u) << Name(t);
      EXPECT_EQ(got.cover, baseline.cover)
          << Name(t) << " cover diverged at loss " << loss;
    }
  }
}

TEST(TransportConformanceTest, CrashedMidPathPeerFailsUnavailableEverywhere) {
  Scenario s = BioScenario(SharedBio(60), kFivePeerPath);
  s.faults.crashes["SwissProt"] = {0, -1};
  // Above the simulator's 80ms virtual round trip (so live hops ack in
  // time), small enough that exhausting the budget on the dead hop costs
  // about a second of wall clock on the TCP transport.
  s.opts.retransmit_timeout_us = 150'000;
  s.opts.max_retransmits = 2;
  for (Transport t : kAllTransports) {
    Outcome got = RunOn(t, s);
    ASSERT_TRUE(got.done) << Name(t) << " did not terminate";
    EXPECT_EQ(got.error.code(), StatusCode::kUnavailable)
        << Name(t) << ": " << got.error;
    EXPECT_NE(got.error.ToString().find("SwissProt"), std::string::npos)
        << Name(t) << ": " << got.error;
    EXPECT_GT(got.net.crash_discards, 0u) << Name(t);
  }
}

TEST(TransportConformanceTest, RowCapOverflowFailsWithSameCodeEverywhere) {
  Scenario s = BioScenario(SharedBio(150), {"Hugo", "GDB", "SwissProt",
                                            "MIM"});
  s.opts.compose.max_result_rows = 3;
  Outcome ref = ExpectConformance(s, /*expect_ok=*/false);
  EXPECT_NE(ref.error.ToString().find("max rows"), std::string::npos)
      << ref.error;
}

// ---- randomized differential soak: sim vs tcp --------------------------

// Random path setup (shape borrowed from test_random_topology.cc):
// random peer attribute sets over tiny finite domains, 1-2 random
// multi-table hops per edge, random variables and exclusions.
struct RandomSetup {
  std::vector<AttributeSet> peer_attrs;
  std::vector<std::vector<MappingConstraint>> hops;
  std::vector<std::string> peer_names;
};

RandomSetup MakeRandomSetup(Rng* rng) {
  constexpr size_t kDomain = 2;
  RandomSetup setup;
  size_t num_peers = 3 + static_cast<size_t>(rng->Uniform(0, 2));  // 3..5
  size_t attr_counter = 0;
  std::vector<std::vector<Attribute>> peer_attr_lists(num_peers);
  for (size_t p = 0; p < num_peers; ++p) {
    size_t n_attrs = 1 + static_cast<size_t>(rng->Uniform(0, 1));  // 1..2
    for (size_t a = 0; a < n_attrs; ++a) {
      peer_attr_lists[p].push_back(
          FiniteAttr("A" + std::to_string(attr_counter++), kDomain));
    }
    setup.peer_attrs.emplace_back(peer_attr_lists[p]);
    setup.peer_names.push_back("peer" + std::to_string(p));
  }
  for (size_t h = 0; h + 1 < num_peers; ++h) {
    std::vector<MappingConstraint> hop;
    size_t n_tables = 1 + static_cast<size_t>(rng->Uniform(0, 1));  // 1..2
    for (size_t t = 0; t < n_tables; ++t) {
      std::vector<Attribute> x;
      for (const Attribute& a : peer_attr_lists[h]) {
        if (rng->Bernoulli(0.7)) x.push_back(a);
      }
      if (x.empty()) x.push_back(peer_attr_lists[h][0]);
      std::vector<Attribute> y;
      for (const Attribute& a : peer_attr_lists[h + 1]) {
        if (rng->Bernoulli(0.7)) y.push_back(a);
      }
      if (y.empty()) y.push_back(peer_attr_lists[h + 1][0]);
      auto table = MappingTable::Create(
          Schema(x), Schema(y),
          "t" + std::to_string(h) + "_" + std::to_string(t));
      EXPECT_TRUE(table.ok());
      size_t rows = 2 + static_cast<size_t>(rng->Uniform(0, 3));
      for (size_t r = 0; r < rows; ++r) {
        VarId next_var = 0;
        std::vector<Cell> cells;
        for (size_t i = 0; i < x.size() + y.size(); ++i) {
          cells.push_back(
              RandomCell(rng, kDomain, &next_var, 0.6, 0.2, 0.25));
        }
        // Random rows may collide (AlreadyExists); density, not exact
        // row count, is what the generator controls.
        IgnoreStatus(table.value().AddRow(Mapping(std::move(cells))));
      }
      hop.push_back(MappingConstraint(std::move(table).value()));
    }
    setup.hops.push_back(std::move(hop));
  }
  return setup;
}

Scenario ScenarioFrom(const std::shared_ptr<RandomSetup>& setup) {
  Scenario s;
  s.build_peers = [setup] {
    std::vector<std::unique_ptr<PeerNode>> peers;
    for (size_t p = 0; p < setup->peer_names.size(); ++p) {
      peers.push_back(std::make_unique<PeerNode>(setup->peer_names[p],
                                                 setup->peer_attrs[p]));
    }
    for (size_t h = 0; h < setup->hops.size(); ++h) {
      for (const MappingConstraint& c : setup->hops[h]) {
        EXPECT_TRUE(peers[h]->AddConstraintTo(peers[h + 1]->id(), c).ok());
      }
    }
    return peers;
  };
  s.path = setup->peer_names;
  for (const Attribute& a : setup->peer_attrs.front().attrs()) {
    s.x_attrs.push_back(a);
  }
  for (const Attribute& a : setup->peer_attrs.back().attrs()) {
    s.y_attrs.push_back(a);
  }
  s.opts = FastRetransmits();
  return s;
}

TEST(TransportConformanceTest, DifferentialSoakRandomTopologies) {
  // Random topologies, some with random loss, replayed sim vs tcp.  The
  // failing seed is in every assertion message: rerun with Rng(seed).
  for (uint64_t seed = 41000; seed < 41012; ++seed) {
    Rng rng(seed);
    auto setup = std::make_shared<RandomSetup>(MakeRandomSetup(&rng));
    Scenario s = ScenarioFrom(setup);
    s.opts.cache_capacity = static_cast<size_t>(rng.Uniform(0, 8));
    s.opts.semijoin_filters = rng.Bernoulli(0.3);
    if (rng.Bernoulli(0.5)) {
      s.faults.seed = seed;
      s.faults.default_link.drop_rate = 0.10;
      s.faults.default_link.dup_rate = 0.05;
      s.faults.default_link.delay_jitter_us = 2'000;
    }
    Outcome on_sim = RunOn(Transport::kSim, s);
    Outcome on_tcp = RunOn(Transport::kTcp, s);
    ASSERT_TRUE(on_sim.done && on_tcp.done) << "seed " << seed;
    ASSERT_EQ(on_tcp.error.code(), on_sim.error.code())
        << "seed " << seed << ": tcp " << on_tcp.error << " vs sim "
        << on_sim.error;
    ASSERT_EQ(on_tcp.cover, on_sim.cover)
        << "seed " << seed << ": tcp cover (" << on_tcp.rows
        << " rows) diverged from sim (" << on_sim.rows << " rows)";
  }
}

// ---- service-level differential soak with curator writes ---------------

MappingTable ChainTable(const std::string& name, const std::string& x_attr,
                        const std::string& y_attr,
                        const std::vector<std::pair<std::string, std::string>>&
                            pairs) {
  MappingTable t =
      MappingTable::Create(Schema::Of({Attribute::String(x_attr)}),
                           Schema::Of({Attribute::String(y_attr)}), name)
          .value();
  for (const auto& [x, y] : pairs) {
    EXPECT_TRUE(t.AddPair({Value(x)}, {Value(y)}).ok());
  }
  return t;
}

ServiceCatalog MakeChainCatalog() {
  ServiceCatalog catalog;
  catalog.store = std::make_unique<TableStore>();
  EXPECT_TRUE(catalog.store
                  ->Put(ChainTable("mAB", "A_id", "B_id",
                                   {{"a1", "b1"}, {"a2", "b2"}, {"a3", "b3"}}))
                  .ok());
  EXPECT_TRUE(catalog.store
                  ->Put(ChainTable("mBC", "B_id", "C_id",
                                   {{"b1", "c1"}, {"b2", "c2"}, {"b3", "c1"}}))
                  .ok());
  for (const auto& [id, attr] :
       std::vector<std::pair<std::string, std::string>>{
           {"A", "A_id"}, {"B", "B_id"}, {"C", "C_id"}}) {
    PeerSpec spec;
    spec.id = id;
    spec.attributes = AttributeSet::Of({Attribute::String(attr)});
    catalog.peers.push_back(std::move(spec));
  }
  catalog.peers[0].tables_to["B"] = {"mAB"};
  catalog.peers[1].tables_to["C"] = {"mBC"};
  return catalog;
}

// A random but deterministic replacement for one of the chain tables,
// drawn from `rng`.
MappingTable RandomReplacement(Rng* rng, bool first_hop) {
  std::vector<std::pair<std::string, std::string>> pairs;
  size_t n = 1 + static_cast<size_t>(rng->Uniform(0, 3));
  for (size_t i = 0; i < n; ++i) {
    std::string x(1, static_cast<char>('1' + rng->Uniform(0, 2)));
    std::string y(1, static_cast<char>('1' + rng->Uniform(0, 2)));
    pairs.emplace_back((first_hop ? "a" : "b") + x,
                       (first_hop ? "b" : "c") + y);
  }
  return first_hop ? ChainTable("mAB", "A_id", "B_id", pairs)
                   : ChainTable("mBC", "B_id", "C_id", pairs);
}

// Drives a workerless service to the response on the calling thread.
QueryResponsePtr ServiceRoundtrip(QueryService* service, QueryRequest req) {
  auto future = service->Submit(std::move(req));
  EXPECT_TRUE(future.ok()) << future.status();
  if (!future.ok()) return nullptr;
  while (future.value().wait_for(std::chrono::seconds(0)) !=
         std::future_status::ready) {
    EXPECT_TRUE(service->RunQueuedOnce());
  }
  return future.value().get();
}

TEST(TransportConformanceTest, DifferentialSoakWithCuratorWrites) {
  // Two identical catalogs served by two services that differ only in
  // transport.  A seeded interleaving of curator writes and queries is
  // applied to both; after every query the status code, cover bytes,
  // and cache attribution must agree.
  for (uint64_t seed : {91u, 92u, 93u, 94u}) {
    Rng rng(seed);
    ServiceCatalog sim_catalog = MakeChainCatalog();
    ServiceCatalog tcp_catalog = MakeChainCatalog();
    QueryServiceOptions sim_opts;
    sim_opts.num_workers = 0;  // deterministic: flights run on this thread
    QueryServiceOptions tcp_opts = sim_opts;
    sim_opts.transport = ServiceTransport::kSim;
    tcp_opts.transport = ServiceTransport::kTcp;
    QueryService sim_service(sim_catalog.store.get(), sim_catalog.peers,
                             sim_opts);
    QueryService tcp_service(tcp_catalog.store.get(), tcp_catalog.peers,
                             tcp_opts);

    QueryRequest req;
    req.path_peers = {"A", "B", "C"};
    req.x_attrs = {Attribute::String("A_id")};
    req.y_attrs = {Attribute::String("C_id")};

    for (int step = 0; step < 24; ++step) {
      if (rng.Bernoulli(0.4)) {
        // Curator write: the same replacement lands in both stores.
        MappingTable replacement =
            RandomReplacement(&rng, rng.Bernoulli(0.5));
        MappingTable copy = replacement;
        ASSERT_TRUE(
            sim_catalog.store->PutOrReplace(std::move(replacement)).ok());
        ASSERT_TRUE(tcp_catalog.store->PutOrReplace(std::move(copy)).ok());
      } else {
        QueryResponsePtr on_sim = ServiceRoundtrip(&sim_service, req);
        QueryResponsePtr on_tcp = ServiceRoundtrip(&tcp_service, req);
        ASSERT_NE(on_sim, nullptr) << "seed " << seed << " step " << step;
        ASSERT_NE(on_tcp, nullptr) << "seed " << seed << " step " << step;
        ASSERT_EQ(on_tcp->status.code(), on_sim->status.code())
            << "seed " << seed << " step " << step << ": tcp "
            << on_tcp->status << " vs sim " << on_sim->status;
        ASSERT_EQ(on_tcp->from_cache, on_sim->from_cache)
            << "seed " << seed << " step " << step;
        if (on_sim->status.ok()) {
          ASSERT_NE(on_sim->cover, nullptr);
          ASSERT_NE(on_tcp->cover, nullptr);
          ASSERT_EQ(on_tcp->cover->Serialize(), on_sim->cover->Serialize())
              << "seed " << seed << " step " << step
              << ": covers diverged after curator writes";
        }
      }
    }
  }
}

}  // namespace
}  // namespace hyperion
