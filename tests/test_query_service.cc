// QueryService: admission control, the versioned cover cache, request
// coalescing, and correctness under concurrency + injected faults.  The
// service contract under test: every response is either a cover
// semantically identical to the centralized engine's, or a loud
// Unavailable / DeadlineExceeded / ResourceExhausted — never a silently
// wrong (or stale) result.

#include "service/query_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/containment.h"
#include "core/cover_engine.h"
#include "obs/metrics.h"
#include "p2p/peer.h"
#include "service/catalogs.h"

namespace hyperion {
namespace {

// ---- fixtures -----------------------------------------------------------

MappingTable PairTable(const std::string& name, const std::string& x_attr,
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

// A three-peer chain A --mAB--> B --mBC--> C over single-id attributes.
ServiceCatalog ChainCatalog() {
  ServiceCatalog catalog;
  catalog.store = std::make_unique<TableStore>();
  EXPECT_TRUE(catalog.store
                  ->Put(PairTable("mAB", "A_id", "B_id",
                                  {{"a1", "b1"}, {"a2", "b2"}, {"a3", "b3"}}))
                  .ok());
  EXPECT_TRUE(catalog.store
                  ->Put(PairTable("mBC", "B_id", "C_id",
                                  {{"b1", "c1"}, {"b2", "c2"}}))
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

QueryRequest ChainRequest() {
  QueryRequest req;
  req.path_peers = {"A", "B", "C"};
  req.x_attrs = {Attribute::String("A_id")};
  req.y_attrs = {Attribute::String("C_id")};
  return req;
}

QueryRequest TwoPeerRequest() {
  QueryRequest req;
  req.path_peers = {"A", "B"};
  req.x_attrs = {Attribute::String("A_id")};
  req.y_attrs = {Attribute::String("B_id")};
  return req;
}

// The centralized oracle for a service query: CoverEngine over the same
// store tables the service serves.
MappingTable CentralCover(const ServiceCatalog& catalog,
                          const QueryRequest& req) {
  std::map<std::string, const PeerSpec*> by_id;
  for (const PeerSpec& spec : catalog.peers) by_id[spec.id] = &spec;
  std::vector<AttributeSet> peer_attrs;
  std::vector<std::vector<MappingConstraint>> hops;
  for (size_t i = 0; i < req.path_peers.size(); ++i) {
    peer_attrs.push_back(by_id.at(req.path_peers[i])->attributes);
    if (i + 1 < req.path_peers.size()) {
      std::vector<MappingConstraint> hop;
      for (const std::string& name :
           by_id.at(req.path_peers[i])->tables_to.at(req.path_peers[i + 1])) {
        hop.emplace_back(catalog.store->Get(name).value());
      }
      hops.push_back(std::move(hop));
    }
  }
  auto path = ConstraintPath::Create(std::move(peer_attrs), std::move(hops),
                                     req.path_peers);
  EXPECT_TRUE(path.ok()) << path.status();
  std::vector<std::string> x_names, y_names;
  for (const Attribute& a : req.x_attrs) x_names.push_back(a.name());
  for (const Attribute& a : req.y_attrs) y_names.push_back(a.name());
  auto cover = CoverEngine().ComputeCover(path.value(), x_names, y_names);
  EXPECT_TRUE(cover.ok()) << cover.status();
  return std::move(cover).value();
}

// Submits and drives a workerless (num_workers = 0) service to the
// response on the calling thread.
QueryResponsePtr Roundtrip(QueryService* service, QueryRequest req) {
  auto future = service->Submit(std::move(req));
  EXPECT_TRUE(future.ok()) << future.status();
  if (!future.ok()) return nullptr;
  while (future.value().wait_for(std::chrono::seconds(0)) !=
         std::future_status::ready) {
    EXPECT_TRUE(service->RunQueuedOnce());
  }
  return future.value().get();
}

bool IsLoudOverloadOrPartition(const Status& s) {
  return s.code() == StatusCode::kUnavailable ||
         s.code() == StatusCode::kDeadlineExceeded ||
         s.code() == StatusCode::kResourceExhausted;
}

// ---- correctness & cache ------------------------------------------------

TEST(QueryServiceTest, ServesCoverMatchingCentralizedEngine) {
  ServiceCatalog catalog = ChainCatalog();
  QueryServiceOptions opts;
  opts.num_workers = 2;
  QueryService service(catalog.store.get(), catalog.peers, opts);
  QueryResponsePtr response = service.Execute(ChainRequest());
  ASSERT_TRUE(response->status.ok()) << response->status;
  ASSERT_NE(response->cover, nullptr);
  MappingTable expected = CentralCover(catalog, ChainRequest());
  EXPECT_TRUE(TablesEquivalent(*response->cover, expected).value());
  EXPECT_FALSE(response->from_cache);
  EXPECT_EQ(response->table_versions,
            (TableVersions{{"mAB", 1}, {"mBC", 1}}));
}

TEST(QueryServiceTest, CacheHitSkipsSecondExecution) {
  ServiceCatalog catalog = ChainCatalog();
  QueryServiceOptions opts;
  opts.num_workers = 0;
  QueryService service(catalog.store.get(), catalog.peers, opts);
  QueryResponsePtr first = Roundtrip(&service, ChainRequest());
  ASSERT_TRUE(first->status.ok()) << first->status;
  QueryResponsePtr second = Roundtrip(&service, ChainRequest());
  ASSERT_TRUE(second->status.ok());
  EXPECT_TRUE(second->from_cache);
  EXPECT_EQ(second->cover.get(), first->cover.get());  // same shared table
  QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.executed, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(service.cache_stats().hits, 1u);
}

TEST(QueryServiceTest, CacheDisabledExecutesEveryTime) {
  ServiceCatalog catalog = ChainCatalog();
  QueryServiceOptions opts;
  opts.num_workers = 0;
  opts.cache_entries = 0;
  QueryService service(catalog.store.get(), catalog.peers, opts);
  ASSERT_TRUE(Roundtrip(&service, ChainRequest())->status.ok());
  QueryResponsePtr second = Roundtrip(&service, ChainRequest());
  ASSERT_TRUE(second->status.ok());
  EXPECT_FALSE(second->from_cache);
  EXPECT_EQ(service.stats().executed, 2u);
}

// The acceptance criterion: a curator PutOrReplace on a participating
// table invalidates the cached cover — the stale result is never served.
TEST(QueryServiceTest, CuratorReplaceInvalidatesCachedCover) {
  ServiceCatalog catalog = ChainCatalog();
  QueryServiceOptions opts;
  opts.num_workers = 0;
  QueryService service(catalog.store.get(), catalog.peers, opts);

  QueryResponsePtr before = Roundtrip(&service, TwoPeerRequest());
  ASSERT_TRUE(before->status.ok());
  // Two-peer cover is the hop table itself.
  MappingTable old_table = PairTable(
      "mAB", "A_id", "B_id", {{"a1", "b1"}, {"a2", "b2"}, {"a3", "b3"}});
  EXPECT_TRUE(TablesEquivalent(*before->cover, old_table).value());
  // Warm hit at the old version.
  EXPECT_TRUE(Roundtrip(&service, TwoPeerRequest())->from_cache);

  // Curator flips a mapping row: a2 now exchanges with b9, not b2.
  MappingTable replacement = PairTable(
      "mAB", "A_id", "B_id", {{"a1", "b1"}, {"a2", "b9"}, {"a3", "b3"}});
  ASSERT_TRUE(catalog.store->PutOrReplace(replacement).ok());

  QueryResponsePtr after = Roundtrip(&service, TwoPeerRequest());
  ASSERT_TRUE(after->status.ok()) << after->status;
  EXPECT_FALSE(after->from_cache);
  EXPECT_TRUE(TablesEquivalent(*after->cover, replacement).value());
  EXPECT_FALSE(TablesEquivalent(*after->cover, old_table).value());
  EXPECT_EQ(after->table_versions.at("mAB"), 2u);
  EXPECT_GE(service.cache_stats().invalidations, 1u);

  // And the fresh result is itself cached at the new version.
  EXPECT_TRUE(Roundtrip(&service, TwoPeerRequest())->from_cache);
}

// ---- admission control & coalescing -------------------------------------

TEST(QueryServiceTest, AdmissionQueueRejectsLoudlyWhenFull) {
  ServiceCatalog catalog = ChainCatalog();
  QueryServiceOptions opts;
  opts.num_workers = 0;  // nothing drains: the queue fills deterministically
  opts.queue_capacity = 2;
  QueryService service(catalog.store.get(), catalog.peers, opts);

  auto f1 = service.Submit(ChainRequest());
  auto f2 = service.Submit(TwoPeerRequest());
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());

  QueryRequest third;
  third.path_peers = {"B", "C"};
  third.x_attrs = {Attribute::String("B_id")};
  third.y_attrs = {Attribute::String("C_id")};
  auto rejected = service.Submit(third);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  // Execute() surfaces the same loud status as a response.
  QueryResponsePtr response = service.Execute(third);
  EXPECT_EQ(response->status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.stats().admission_rejects, 2u);

  // A twin of an admitted request coalesces instead of being rejected.
  auto coalesced = service.Submit(ChainRequest());
  ASSERT_TRUE(coalesced.ok());
  EXPECT_EQ(service.stats().coalesced, 1u);

  while (service.RunQueuedOnce()) {
  }
  EXPECT_TRUE(f1.value().get()->status.ok());
  EXPECT_TRUE(f2.value().get()->status.ok());
  EXPECT_EQ(coalesced.value().get().get(), f1.value().get().get());
}

TEST(QueryServiceTest, CoalescesIdenticalInFlightRequests) {
  ServiceCatalog catalog = ChainCatalog();
  QueryServiceOptions opts;
  opts.num_workers = 0;
  QueryService service(catalog.store.get(), catalog.peers, opts);
  auto f1 = service.Submit(ChainRequest());
  auto f2 = service.Submit(ChainRequest());
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  EXPECT_TRUE(service.RunQueuedOnce());
  EXPECT_FALSE(service.RunQueuedOnce());  // one flight served both
  QueryResponsePtr r1 = f1.value().get();
  QueryResponsePtr r2 = f2.value().get();
  EXPECT_EQ(r1.get(), r2.get());
  QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.executed, 1u);
  EXPECT_EQ(stats.coalesced, 1u);
}

TEST(QueryServiceTest, ValidatesRequestsLoudly) {
  ServiceCatalog catalog = ChainCatalog();
  QueryServiceOptions opts;
  opts.num_workers = 0;
  QueryService service(catalog.store.get(), catalog.peers, opts);
  QueryRequest bad = ChainRequest();
  bad.path_peers = {"A"};
  EXPECT_EQ(service.Submit(bad).status().code(),
            StatusCode::kInvalidArgument);
  bad = ChainRequest();
  bad.path_peers = {"A", "Nobody"};
  EXPECT_EQ(service.Submit(bad).status().code(), StatusCode::kNotFound);
  bad = ChainRequest();
  bad.path_peers = {"C", "A"};  // C holds nothing toward A
  EXPECT_EQ(service.Submit(bad).status().code(), StatusCode::kNotFound);
}

TEST(QueryServiceTest, ShutdownFailsQueuedFlightsLoudly) {
  ServiceCatalog catalog = ChainCatalog();
  QueryServiceOptions opts;
  opts.num_workers = 0;
  QueryService service(catalog.store.get(), catalog.peers, opts);
  auto f = service.Submit(ChainRequest());
  ASSERT_TRUE(f.ok());
  service.Shutdown();
  EXPECT_EQ(f.value().get()->status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(service.Submit(ChainRequest()).status().code(),
            StatusCode::kUnavailable);
}

// ---- concurrency: N threads x M queries, faults injected ----------------

TEST(QueryServiceTest, ConcurrentFaultSoakNeverServesWrongResult) {
  BioConfig config;
  config.num_entities = 60;
  auto catalog = BuildBioCatalog(config);
  ASSERT_TRUE(catalog.ok()) << catalog.status();

  QueryServiceOptions opts;
  opts.num_workers = 4;
  opts.queue_capacity = 8;  // small enough that rejects actually happen
  opts.fault_plan.seed = 77;
  opts.fault_plan.default_link.drop_rate = 0.05;
  opts.fault_plan.default_link.dup_rate = 0.05;
  QueryService service(catalog.value().store.get(), catalog.value().peers,
                       opts);

  const auto paths = BioWorkload::HugoMimPaths();
  std::vector<MappingTable> expected;
  for (const auto& dbs : paths) {
    QueryRequest req;
    req.path_peers = dbs;
    req.x_attrs = {Attribute::String(BioWorkload::AttrNameOf(dbs.front()))};
    req.y_attrs = {Attribute::String(BioWorkload::AttrNameOf(dbs.back()))};
    expected.push_back(CentralCover(catalog.value(), req));
  }

  constexpr size_t kThreads = 4;
  constexpr size_t kQueriesPerThread = 6;
  std::atomic<size_t> ok_count{0}, loud_count{0}, wrong_count{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (size_t i = 0; i < kQueriesPerThread; ++i) {
        size_t which = (t * kQueriesPerThread + i) % paths.size();
        QueryRequest req;
        req.path_peers = paths[which];
        req.x_attrs = {
            Attribute::String(BioWorkload::AttrNameOf(paths[which].front()))};
        req.y_attrs = {
            Attribute::String(BioWorkload::AttrNameOf(paths[which].back()))};
        req.options.session_deadline_us = 60'000'000;
        QueryResponsePtr response = service.Execute(req);
        if (response->status.ok()) {
          auto same = TablesEquivalent(*response->cover, expected[which]);
          if (same.ok() && same.value()) {
            ok_count.fetch_add(1);
          } else {
            wrong_count.fetch_add(1);
          }
        } else if (IsLoudOverloadOrPartition(response->status)) {
          loud_count.fetch_add(1);
        } else {
          ADD_FAILURE() << "unexpected status: " << response->status;
          wrong_count.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();

  EXPECT_EQ(wrong_count.load(), 0u);
  EXPECT_EQ(ok_count.load() + loud_count.load(),
            kThreads * kQueriesPerThread);
  EXPECT_GT(ok_count.load(), 0u);  // faults are survivable, not fatal
}

// The header's promise: a service worker can read the store while a
// curator writes.  Every served cover must match the table contents at
// some version the curator actually published — never a torn mixture.
TEST(QueryServiceTest, ConcurrentCuratorWritesNeverTearResults) {
  ServiceCatalog catalog = ChainCatalog();
  QueryServiceOptions opts;
  opts.num_workers = 2;
  opts.queue_capacity = 64;
  QueryService service(catalog.store.get(), catalog.peers, opts);

  const MappingTable v_even = PairTable(
      "mAB", "A_id", "B_id", {{"a1", "b1"}, {"a2", "b2"}, {"a3", "b3"}});
  const MappingTable v_odd = PairTable(
      "mAB", "A_id", "B_id", {{"a1", "b7"}, {"a2", "b8"}, {"a3", "b9"}});

  std::atomic<bool> done{false};
  std::atomic<size_t> torn{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < 2; ++t) {
    clients.emplace_back([&] {
      while (!done.load()) {
        QueryResponsePtr response = service.Execute(TwoPeerRequest());
        if (!response->status.ok()) continue;  // loud failure is fine
        bool even = TablesEquivalent(*response->cover, v_even).value();
        bool odd = TablesEquivalent(*response->cover, v_odd).value();
        if (!even && !odd) torn.fetch_add(1);
      }
    });
  }
  for (int flip = 0; flip < 20; ++flip) {
    ASSERT_TRUE(
        catalog.store->PutOrReplace(flip % 2 ? v_odd : v_even).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  done.store(true);
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GE(catalog.store->VersionOf("mAB"), 21u);
}

TEST(QueryServiceTest, TransportNamesAreSimAndTcpOnly) {
  for (ServiceTransport transport :
       {ServiceTransport::kSim, ServiceTransport::kTcp}) {
    auto parsed = ParseServiceTransport(ServiceTransportName(transport));
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(parsed.value(), transport);
  }
  for (const char* name : {"threaded", "", "TCP"}) {
    auto parsed = ParseServiceTransport(name);
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << name;
    EXPECT_NE(parsed.status().ToString().find("sim | tcp"),
              std::string::npos)
        << parsed.status();
  }
}

// Teardown race surface for the wall-clock transport: destroying the
// service while sessions are still in flight must join every worker and
// every transport thread — no response may be lost, no network may be
// touched after its session's peers are gone.  (Runs under TSan in CI.)
TEST(QueryServiceTest, DestroyWithSessionsInFlightOnWallClockTransports) {
  ServiceCatalog catalog = ChainCatalog();
  QueryServiceOptions opts;
  opts.num_workers = 4;
  opts.cache_entries = 0;  // every admitted request runs a real session
  opts.transport = ServiceTransport::kTcp;
  auto service = std::make_unique<QueryService>(catalog.store.get(),
                                                catalog.peers, opts);
  std::vector<QueryFuture> futures;
  for (int i = 0; i < 12; ++i) {
    auto future = service->Submit(ChainRequest());
    ASSERT_TRUE(future.ok()) << future.status();
    futures.push_back(std::move(future).value());
  }
  // Destruct with most flights queued or mid-protocol.  Every future
  // must still resolve: a cover, or a loud Unavailable for flights the
  // shutdown failed before a worker picked them up.
  service.reset();
  for (QueryFuture& future : futures) {
    QueryResponsePtr response = future.get();
    ASSERT_NE(response, nullptr);
    EXPECT_TRUE(response->status.ok() ||
                IsLoudOverloadOrPartition(response->status))
        << response->status;
  }
}

// ---- tcp network reuse across sessions ----------------------------------

QueryServiceOptions SingleWorkerTcp() {
  QueryServiceOptions opts;
  opts.num_workers = 1;
  opts.cache_entries = 0;  // every query runs a session
  opts.transport = ServiceTransport::kTcp;
  return opts;
}

std::string SimCoverBytes(const ServiceCatalog& catalog, QueryRequest req) {
  QueryServiceOptions opts;
  opts.num_workers = 0;
  opts.cache_entries = 0;
  QueryService sim(catalog.store.get(), catalog.peers, opts);
  QueryResponsePtr r = Roundtrip(&sim, std::move(req));
  EXPECT_TRUE(r != nullptr && r->status.ok());
  return r != nullptr && r->cover != nullptr ? r->cover->Serialize() : "";
}

uint64_t TcpConnects() {
  return obs::MetricRegistry::Default()
      .GetCounter("net.tcp.connects", {{"network", "tcp"}})
      ->value();
}

TEST(QueryServiceTcpReuseTest, SessionsReuseConnections) {
  ServiceCatalog catalog = ChainCatalog();
  const std::string chain = SimCoverBytes(catalog, ChainRequest());
  const std::string two_peer = SimCoverBytes(catalog, TwoPeerRequest());
  QueryService service(catalog.store.get(), catalog.peers,
                       SingleWorkerTcp());
  uint64_t connects_after_first = 0;
  for (int i = 0; i < 20; ++i) {
    const bool odd = i % 2 == 1;
    QueryResponsePtr r =
        service.Execute(odd ? TwoPeerRequest() : ChainRequest());
    ASSERT_TRUE(r->status.ok()) << "query " << i << ": " << r->status;
    EXPECT_EQ(r->cover->Serialize(), odd ? two_peer : chain)
        << "query " << i;
    if (i == 0) connects_after_first = TcpConnects();
  }
  if constexpr (obs::kMetricsEnabled) {
    // The first session opened every connection the later ones use.
    EXPECT_EQ(TcpConnects(), connects_after_first);
  }
}

TEST(QueryServiceTcpReuseTest, FailedSessionLeavesPooledNetworkClean) {
  ServiceCatalog catalog = ChainCatalog();
  const std::string chain = SimCoverBytes(catalog, ChainRequest());
  QueryService service(catalog.store.get(), catalog.peers,
                       SingleWorkerTcp());
  QueryRequest capped = ChainRequest();
  capped.options.compose.max_result_rows = 1;
  QueryResponsePtr failed = service.Execute(capped);
  EXPECT_FALSE(failed->status.ok());
  EXPECT_NE(failed->status.ToString().find("max rows"), std::string::npos)
      << failed->status;
  for (int i = 0; i < 3; ++i) {
    QueryResponsePtr r = service.Execute(ChainRequest());
    ASSERT_TRUE(r->status.ok()) << r->status;
    EXPECT_EQ(r->cover->Serialize(), chain);
  }
}

TEST(QueryServiceTcpReuseTest, FaultWindowsAreRelativeToEachSession) {
  // The initiator's first link is down for the first 100 ms of every
  // session.  On a reused network, whose clock keeps running, queries 2
  // and 3 would miss the outage unless the plan is rebased per session.
  ServiceCatalog catalog = ChainCatalog();
  const std::string chain = SimCoverBytes(catalog, ChainRequest());
  QueryServiceOptions opts = SingleWorkerTcp();
  opts.fault_plan.links[{"A", "B"}].outages_us = {{0, 100'000}};
  QueryService service(catalog.store.get(), catalog.peers, opts);
  for (int i = 0; i < 3; ++i) {
    QueryResponsePtr r = service.Execute(ChainRequest());
    ASSERT_TRUE(r->status.ok()) << "query " << i << ": " << r->status;
    EXPECT_EQ(r->cover->Serialize(), chain) << "query " << i;
    EXPECT_GE(r->latency_us, 100'000) << "query " << i;
  }
}

// ---- join indexes kept across sessions ----------------------------------

// A four-peer chain A --mAB--> B --mBC--> C --mCD--> D.  C starts the
// stream; B probes an index over mBC and A one over mAB.
ServiceCatalog LongChainCatalog() {
  ServiceCatalog catalog = ChainCatalog();
  EXPECT_TRUE(catalog.store
                  ->Put(PairTable("mCD", "C_id", "D_id",
                                  {{"c1", "d1"}, {"c2", "d2"}}))
                  .ok());
  PeerSpec d;
  d.id = "D";
  d.attributes = AttributeSet::Of({Attribute::String("D_id")});
  catalog.peers.push_back(std::move(d));
  catalog.peers[2].tables_to["D"] = {"mCD"};
  return catalog;
}

QueryRequest LongChainRequest() {
  QueryRequest req;
  req.path_peers = {"A", "B", "C", "D"};
  req.x_attrs = {Attribute::String("A_id")};
  req.y_attrs = {Attribute::String("D_id")};
  return req;
}

// The cover of `req` as bare peers compute it, each with a private index
// store, on a fresh simulated network.
std::string PrivateStoreCoverBytes(const ServiceCatalog& catalog,
                                   const QueryRequest& req) {
  std::map<std::string, const PeerSpec*> by_id;
  for (const PeerSpec& spec : catalog.peers) by_id[spec.id] = &spec;
  SimNetwork net;
  std::vector<std::unique_ptr<PeerNode>> peers;
  for (const std::string& id : req.path_peers) {
    peers.push_back(
        std::make_unique<PeerNode>(id, by_id.at(id)->attributes));
    EXPECT_TRUE(peers.back()->Attach(&net).ok());
  }
  for (size_t hop = 0; hop + 1 < peers.size(); ++hop) {
    const std::string& next = req.path_peers[hop + 1];
    for (const std::string& name :
         by_id.at(req.path_peers[hop])->tables_to.at(next)) {
      EXPECT_TRUE(peers[hop]
                      ->AddConstraintTo(
                          next, MappingConstraint(
                                    catalog.store->Get(name).value()))
                      .ok());
    }
  }
  auto session = peers[0]->StartCoverSession(req.path_peers, req.x_attrs,
                                             req.y_attrs, req.options);
  EXPECT_TRUE(session.ok()) << session.status();
  if (!session.ok()) return "";
  EXPECT_TRUE(net.Run().ok());
  auto result = peers[0]->GetResult(session.value());
  EXPECT_TRUE(result.ok() && result.value()->done &&
              result.value()->error.ok());
  return result.ok() ? result.value()->cover.Serialize() : "";
}

uint64_t IndexBuilds() {
  return obs::MetricRegistry::Default()
      .GetCounter("cover.join_index_builds")
      ->value();
}

uint64_t ProjectionBuilds() {
  return obs::MetricRegistry::Default()
      .GetCounter("cover.starter_projection_builds")
      ->value();
}

// Runs 20 sessions of the long chain, then 5 more after a curator write
// to mBC, checking every cover against private-store peers and counting
// the indexes built.
void ExpectIndexesBuiltOncePerTableVersion(ServiceTransport transport) {
  ServiceCatalog catalog = LongChainCatalog();
  QueryServiceOptions opts;
  opts.num_workers = 1;
  opts.cache_entries = 0;  // every query runs a session
  opts.transport = transport;
  QueryService service(catalog.store.get(), catalog.peers, opts);
  const std::string v1 = PrivateStoreCoverBytes(catalog, LongChainRequest());
  ASSERT_FALSE(v1.empty());
  const uint64_t before = IndexBuilds();
  for (int i = 0; i < 20; ++i) {
    QueryResponsePtr r = service.Execute(LongChainRequest());
    ASSERT_TRUE(r->status.ok()) << "query " << i << ": " << r->status;
    EXPECT_EQ(r->cover->Serialize(), v1) << "query " << i;
  }
  if constexpr (obs::kMetricsEnabled) {
    // One index over mAB (at A), one over mBC (at B), for all 20.
    EXPECT_EQ(IndexBuilds() - before, 2u);
  }

  // The curator rewrites mBC: b2 now maps to c1.  Only mBC's index is
  // rebuilt; mAB's, over the unchanged table object, is kept.
  ASSERT_TRUE(catalog.store
                  ->PutOrReplace(PairTable("mBC", "B_id", "C_id",
                                           {{"b1", "c1"}, {"b2", "c1"}}))
                  .ok());
  const std::string v2 = PrivateStoreCoverBytes(catalog, LongChainRequest());
  ASSERT_FALSE(v2.empty());
  EXPECT_NE(v2, v1);
  const uint64_t after_write = IndexBuilds();
  for (int i = 0; i < 5; ++i) {
    QueryResponsePtr r = service.Execute(LongChainRequest());
    ASSERT_TRUE(r->status.ok()) << "query " << i << ": " << r->status;
    EXPECT_EQ(r->cover->Serialize(), v2) << "query " << i;
  }
  if constexpr (obs::kMetricsEnabled) {
    EXPECT_EQ(IndexBuilds() - after_write, 1u);
  }
}

TEST(QueryServiceJoinIndexTest, SimBuildsEachIndexOncePerTableVersion) {
  ExpectIndexesBuiltOncePerTableVersion(ServiceTransport::kSim);
}

TEST(QueryServiceJoinIndexTest, TcpBuildsEachIndexOncePerTableVersion) {
  ExpectIndexesBuiltOncePerTableVersion(ServiceTransport::kTcp);
}

TEST(QueryServiceJoinIndexTest, TcpWorkersShareTheStore) {
  // Three workers run sessions at once on three tcp networks, each with
  // its own loop thread, so the store is read and filled from several
  // threads.  The paths share mAB and mBC under different probes.  A->D
  // and B->D, each with and without combining (distinct requests, so
  // none coalesce), all start at C and stream the same projection of
  // mCD: several workers start that starter at once and share the one
  // kept projection.  Each round after the first begins with a new mCD
  // object of the same rows, so its projection is rebuilt and replaced
  // while those sessions run.
  ServiceCatalog catalog = LongChainCatalog();
  QueryRequest bcd;
  bcd.path_peers = {"B", "C", "D"};
  bcd.x_attrs = {Attribute::String("B_id")};
  bcd.y_attrs = {Attribute::String("D_id")};
  QueryRequest abcd_split = LongChainRequest();
  abcd_split.options.combine_partitions = false;
  QueryRequest bcd_split = bcd;
  bcd_split.options.combine_partitions = false;
  std::vector<QueryRequest> requests = {LongChainRequest(), abcd_split, bcd,
                                        bcd_split, ChainRequest()};
  std::vector<std::string> expected;
  for (const QueryRequest& req : requests) {
    expected.push_back(PrivateStoreCoverBytes(catalog, req));
  }
  QueryServiceOptions opts;
  opts.num_workers = 3;
  opts.cache_entries = 0;
  opts.transport = ServiceTransport::kTcp;
  QueryService service(catalog.store.get(), catalog.peers, opts);
  for (int round = 0; round < 6; ++round) {
    if (round > 0) {
      ASSERT_TRUE(catalog.store
                      ->PutOrReplace(PairTable("mCD", "C_id", "D_id",
                                               {{"c1", "d1"}, {"c2", "d2"}}))
                      .ok());
    }
    std::vector<QueryFuture> futures;
    for (int i = 0; i < 10; ++i) {
      auto f = service.Submit(requests[i % requests.size()]);
      ASSERT_TRUE(f.ok()) << f.status();
      futures.push_back(f.value());
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      QueryResponsePtr r = futures[i].get();
      ASSERT_TRUE(r->status.ok()) << "query " << i << ": " << r->status;
      EXPECT_EQ(r->cover->Serialize(), expected[i % requests.size()])
          << "round " << round << ", query " << i;
    }
  }
  // Every index and projection is kept by now: one more session per
  // request builds none.
  const uint64_t indexes_before = IndexBuilds();
  const uint64_t projections_before = ProjectionBuilds();
  for (size_t i = 0; i < requests.size(); ++i) {
    QueryResponsePtr r = service.Execute(requests[i]);
    ASSERT_TRUE(r->status.ok()) << r->status;
    EXPECT_EQ(r->cover->Serialize(), expected[i]);
  }
  if constexpr (obs::kMetricsEnabled) {
    EXPECT_EQ(IndexBuilds(), indexes_before);
    EXPECT_EQ(ProjectionBuilds(), projections_before);
  }
}

// ---- the Hugo->MIM paths against the engine, cold and kept -------------

// A copy of `table` with every other row, under the same name: a curator
// write that changes the cover of every path through it.
MappingTable EveryOtherRow(const MappingTable& table) {
  MappingTable out =
      MappingTable::Create(table.x_schema(), table.y_schema(), table.name())
          .value();
  for (size_t i = 0; i < table.size(); i += 2) {
    EXPECT_TRUE(out.AddRow(table.rows()[i]).ok());
  }
  return out;
}

// Runs each of the seven Hugo->MIM paths through one service twice:
// cold, then with every index and starter projection it built kept.
// Both covers must be byte-identical to CoverEngine's cover of the same
// tables, and the kept pass builds nothing.  Then a curator write
// replaces one table on several paths, and both passes run again.
void ExpectHugoMimCoversMatchTheEngine(ServiceTransport transport,
                                       bool semijoin_filters) {
  BioConfig bio;
  bio.num_entities = 300;
  auto built = BuildBioCatalog(bio);
  ASSERT_TRUE(built.ok()) << built.status();
  ServiceCatalog& catalog = built.value();
  QueryServiceOptions opts;
  opts.num_workers = 1;
  opts.cache_entries = 0;  // every query runs a session
  opts.transport = transport;
  QueryService service(catalog.store.get(), catalog.peers, opts);
  std::vector<QueryRequest> requests;
  for (const auto& dbs : BioWorkload::HugoMimPaths()) {
    QueryRequest req;
    req.path_peers = dbs;
    req.x_attrs = {Attribute::String(BioWorkload::AttrNameOf(dbs.front()))};
    req.y_attrs = {Attribute::String(BioWorkload::AttrNameOf(dbs.back()))};
    req.options.semijoin_filters = semijoin_filters;
    requests.push_back(std::move(req));
  }
  auto run_both_passes = [&](const std::string& tables) {
    std::vector<std::string> expected;
    size_t rows = 0;
    for (const QueryRequest& req : requests) {
      MappingTable cover = CentralCover(catalog, req);
      rows += cover.size();
      expected.push_back(cover.Serialize());
    }
    EXPECT_GT(rows, 0u) << tables;
    for (const char* pass : {"cold", "kept"}) {
      const uint64_t indexes_before = IndexBuilds();
      const uint64_t projections_before = ProjectionBuilds();
      for (size_t i = 0; i < requests.size(); ++i) {
        QueryResponsePtr r = service.Execute(requests[i]);
        ASSERT_TRUE(r->status.ok())
            << tables << ", " << pass << " path " << i << ": " << r->status;
        EXPECT_EQ(r->cover->Serialize(), expected[i])
            << tables << ", " << pass << " path " << i;
      }
      // With semijoin filters most local sides are private to their
      // session, so they are built again in every pass.
      if (obs::kMetricsEnabled && !semijoin_filters &&
          std::string(pass) == "kept") {
        EXPECT_EQ(IndexBuilds(), indexes_before) << tables;
        EXPECT_EQ(ProjectionBuilds(), projections_before) << tables;
      }
    }
  };
  run_both_passes("first tables");

  // GDB's table to MIM is the starter's side of paths 3 and 7, Hugo's
  // to GDB an indexed side of paths 2 and 3: rewrite both, so a kept
  // projection and a kept index are each replaced.
  for (const auto& [from, to] : {std::pair<std::string, std::string>(
                                     "GDB", "MIM"),
                                 {"Hugo", "GDB"}}) {
    std::string name;
    for (const PeerSpec& spec : catalog.peers) {
      if (spec.id == from) name = spec.tables_to.at(to).front();
    }
    ASSERT_FALSE(name.empty()) << from << "->" << to;
    auto old_table = catalog.store->Get(name);
    ASSERT_TRUE(old_table.ok()) << old_table.status();
    ASSERT_TRUE(
        catalog.store->PutOrReplace(EveryOtherRow(*old_table.value())).ok());
  }
  run_both_passes("after the curator writes");
}

TEST(QueryServiceJoinIndexTest, SimHugoMimCoversMatchTheEngineColdAndKept) {
  ExpectHugoMimCoversMatchTheEngine(ServiceTransport::kSim,
                                    /*semijoin_filters=*/false);
}

TEST(QueryServiceJoinIndexTest, TcpHugoMimCoversMatchTheEngineColdAndKept) {
  ExpectHugoMimCoversMatchTheEngine(ServiceTransport::kTcp,
                                    /*semijoin_filters=*/false);
}

TEST(QueryServiceJoinIndexTest, SimHugoMimSemijoinCoversMatchTheEngine) {
  ExpectHugoMimCoversMatchTheEngine(ServiceTransport::kSim,
                                    /*semijoin_filters=*/true);
}

TEST(QueryServiceJoinIndexTest, TcpHugoMimSemijoinCoversMatchTheEngine) {
  ExpectHugoMimCoversMatchTheEngine(ServiceTransport::kTcp,
                                    /*semijoin_filters=*/true);
}

// ---- CoverCache unit behaviour ------------------------------------------

TEST(CoverCacheTest, LruEvictsAndCountsStats) {
  CoverCache cache(2);
  auto table = std::make_shared<const MappingTable>(
      PairTable("m", "A", "B", {{"x", "y"}}));
  cache.Insert("k1", {{"m", 1}}, table);
  cache.Insert("k2", {{"m", 1}}, table);
  EXPECT_NE(cache.Lookup("k1", {{"m", 1}}), nullptr);  // k1 now MRU
  cache.Insert("k3", {{"m", 1}}, table);               // evicts k2
  EXPECT_EQ(cache.Lookup("k2", {{"m", 1}}), nullptr);
  EXPECT_NE(cache.Lookup("k1", {{"m", 1}}), nullptr);
  EXPECT_NE(cache.Lookup("k3", {{"m", 1}}), nullptr);
  CoverCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(CoverCacheTest, VersionMismatchInvalidates) {
  CoverCache cache(8);
  auto table = std::make_shared<const MappingTable>(
      PairTable("m", "A", "B", {{"x", "y"}}));
  cache.Insert("k", {{"m", 1}, {"n", 4}}, table);
  EXPECT_EQ(cache.Lookup("k", {{"m", 2}, {"n", 4}}), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.size(), 0u);  // reclaimed eagerly, not just skipped
  // Even the *same* key at the old versions is gone now.
  EXPECT_EQ(cache.Lookup("k", {{"m", 1}, {"n", 4}}), nullptr);
}

TEST(CoverCacheTest, ZeroCapacityDisables) {
  CoverCache cache(0);
  auto table = std::make_shared<const MappingTable>(
      PairTable("m", "A", "B", {{"x", "y"}}));
  cache.Insert("k", {{"m", 1}}, table);
  EXPECT_EQ(cache.Lookup("k", {{"m", 1}}), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

}  // namespace
}  // namespace hyperion
