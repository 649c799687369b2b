// Adaptive retransmit timeouts (p2p/link_rtt.h): the RFC 6298 estimator
// arithmetic, Karn's rule and the two lower bounds; a QueryService whose
// sessions share one link table recovering from a dropped batch at the
// learned RTO rather than the configured 500 ms; and loss-free sessions
// over uneven links never retransmitting spuriously.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "p2p/link_rtt.h"
#include "p2p/network.h"
#include "p2p/peer.h"
#include "service/catalogs.h"
#include "service/query_service.h"
#include "test_util.h"

namespace hyperion {
namespace {

constexpr int64_t kMs = 1'000;

// ---- estimator arithmetic ------------------------------------------------

TEST(AdaptiveRtoEstimatorTest, NoSampleWaitsTheConfiguredTimeout) {
  RttEstimator est;
  EXPECT_FALSE(est.has_samples());
  EXPECT_EQ(est.Rto(500 * kMs), 500 * kMs);
  LinkRttTable table;
  EXPECT_EQ(table.Rto("A", "B", 500 * kMs), 500 * kMs);
  EXPECT_FALSE(table.Estimate("A", "B").has_samples());
}

TEST(AdaptiveRtoEstimatorTest, FirstSampleSetsSrttAndHalfVariance) {
  RttEstimator est;
  est.AddSample(80 * kMs);
  EXPECT_EQ(est.srtt_us(), 80 * kMs);
  EXPECT_EQ(est.rttvar_us(), 40 * kMs);
  // SRTT + 4·RTTVAR = 240 ms beats both 2·max_recent and the floor.
  EXPECT_EQ(est.Rto(500 * kMs), 240 * kMs);
}

TEST(AdaptiveRtoEstimatorTest, LaterSamplesUseRfc6298Weights) {
  RttEstimator est;
  est.AddSample(80 * kMs);
  est.AddSample(120 * kMs);
  // RTTVAR = 3/4·40 + 1/4·|80 - 120| = 40; SRTT = 7/8·80 + 1/8·120 = 85.
  EXPECT_EQ(est.rttvar_us(), 40 * kMs);
  EXPECT_EQ(est.srtt_us(), 85 * kMs);
  est.AddSample(40 * kMs);
  // RTTVAR uses the old SRTT: 3/4·40 + 1/4·|85 - 40| = 41.25.
  EXPECT_EQ(est.rttvar_us(), 41'250);
  EXPECT_EQ(est.srtt_us(), 79'375);
}

TEST(AdaptiveRtoEstimatorTest, ClampsToFloorAndConfiguredCeiling) {
  RttEstimator fast;
  for (int i = 0; i < 40; ++i) fast.AddSample(1 * kMs);
  EXPECT_EQ(fast.Rto(500 * kMs), RttEstimator::kMinRtoUs);

  RttEstimator slow;
  slow.AddSample(400 * kMs);
  EXPECT_EQ(slow.Rto(500 * kMs), 500 * kMs);
  // A configured timeout below the floor is a ceiling all the same.
  EXPECT_EQ(fast.Rto(50 * kMs), 50 * kMs);
}

TEST(AdaptiveRtoEstimatorTest, TwiceMaxRecentGuardsAgainstOneSlowAck) {
  RttEstimator est;
  for (int i = 0; i < 40; ++i) est.AddSample(100 * kMs);
  // RTTVAR has decayed to nothing: the guard, not SRTT + 4·RTTVAR, sets
  // the RTO.
  EXPECT_LT(est.srtt_us() + 4 * est.rttvar_us(), 101 * kMs);
  EXPECT_EQ(est.Rto(2'000 * kMs), 200 * kMs);

  est.AddSample(300 * kMs);
  EXPECT_EQ(est.max_recent_us(), 300 * kMs);
  EXPECT_EQ(est.Rto(2'000 * kMs), 600 * kMs);

  // The slow sample leaves the window after kRecentSamples fast ones.
  for (size_t i = 0; i < RttEstimator::kRecentSamples; ++i) {
    est.AddSample(100 * kMs);
  }
  EXPECT_EQ(est.max_recent_us(), 100 * kMs);
  EXPECT_EQ(est.Rto(2'000 * kMs), 200 * kMs);
}

TEST(AdaptiveRtoEstimatorTest, LinksAreEstimatedPerDirection) {
  LinkRttTable table;
  table.AddSample("A", "B", 80 * kMs);
  EXPECT_EQ(table.Rto("A", "B", 500 * kMs), 240 * kMs);
  EXPECT_EQ(table.Rto("B", "A", 500 * kMs), 500 * kMs);
}

// ---- fixtures ------------------------------------------------------------

// A chain A -> B -> C -> D, one single-id table per hop.
ServiceCatalog ChainCatalog() {
  ServiceCatalog catalog;
  catalog.store = std::make_unique<TableStore>();
  const std::vector<std::string>& ids = testing_util::SimChain::kPath;
  for (size_t i = 0; i < ids.size(); ++i) {
    PeerSpec spec;
    spec.id = ids[i];
    spec.attributes = AttributeSet::Of({Attribute::String(ids[i] + "_id")});
    if (i + 1 < ids.size()) {
      const std::string table = "m" + ids[i] + ids[i + 1];
      EXPECT_TRUE(catalog.store
                      ->Put(testing_util::PairTable(table, ids[i] + "_id",
                                                    ids[i + 1] + "_id"))
                      .ok());
      spec.tables_to[ids[i + 1]] = {table};
    }
    catalog.peers.push_back(std::move(spec));
  }
  return catalog;
}

QueryRequest ChainRequest(const std::vector<std::string>& path) {
  QueryRequest req;
  req.path_peers = path;
  req.x_attrs = {Attribute::String(path.front() + "_id")};
  req.y_attrs = {Attribute::String(path.back() + "_id")};
  return req;
}

// ---- Karn's rule, end to end ---------------------------------------------

TEST(AdaptiveRtoPeerTest, RetransmittedSendGivesNoSample) {
  // A's session init to B departs at t = 0 inside a link outage and is
  // lost; only its retransmission is acked.  That ack cannot say which
  // copy it answers, so (A, B) learns nothing, while B's first-attempt
  // plan and batch toward A do give (B, A) samples.  (C, the path's end,
  // is sent nothing on a three-peer path.)
  ServiceCatalog catalog = ChainCatalog();
  auto table = std::make_shared<LinkRttTable>();
  SimNetwork net;
  FaultPlan plan;
  plan.links[{"A", "B"}].outages_us = {{0, 1}};
  net.SetFaultPlan(plan);
  std::vector<std::unique_ptr<PeerNode>> peers;
  for (size_t i = 0; i < 3; ++i) {
    const PeerSpec& spec = catalog.peers[i];
    peers.push_back(
        std::make_unique<PeerNode>(spec.id, spec.attributes, table));
    ASSERT_TRUE(peers.back()->Attach(&net).ok());
  }
  for (size_t i = 0; i < 2; ++i) {  // C holds no table on this path
    const std::string& next = catalog.peers[i + 1].id;
    for (const std::string& name : catalog.peers[i].tables_to.at(next)) {
      ASSERT_TRUE(peers[i]
                      ->AddConstraintTo(next, MappingConstraint(
                                                  catalog.store->Get(name)
                                                      .value()))
                      .ok());
    }
  }
  QueryRequest req = ChainRequest({"A", "B", "C"});
  auto session = peers[0]->StartCoverSession(req.path_peers, req.x_attrs,
                                             req.y_attrs);
  ASSERT_TRUE(session.ok()) << session.status();
  ASSERT_TRUE(net.Run().ok());
  auto result = peers[0]->GetResult(session.value());
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result.value()->done);
  ASSERT_TRUE(result.value()->error.ok()) << result.value()->error;
  EXPECT_EQ(net.stats().drops_injected, 1u);
  EXPECT_FALSE(table->Estimate("A", "B").has_samples());
  EXPECT_TRUE(table->Estimate("B", "A").has_samples());
}

// ---- the service's shared link table -------------------------------------

// A workerless, cache-off service on the sim transport.  Handler compute
// is not charged to the virtual clock, so session timelines do not depend
// on the host (sanitizer builds run handlers many times slower).
QueryServiceOptions SimServiceOptions() {
  QueryServiceOptions opts;
  opts.num_workers = 0;
  opts.cache_entries = 0;
  opts.net_options.compute_scale = 0;
  return opts;
}

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

TEST(AdaptiveRtoServiceTest, WarmedServiceRecoversADroppedBatchAtLearnedRto) {
  // Every session of the service runs under an outage of link (B, A)
  // between 100 and 200 ms of its private virtual clock.  On A-B-C, B
  // sends to A only at ~42 ms, so those sessions are loss-free and teach
  // the service's table B->A's round trip (~85 ms, RTO ~170 ms).  On
  // A-B-C-D, B's batch toward A leaves at ~130 ms and is lost.  A warmed
  // service retransmits it after the learned RTO and beats a 450 ms
  // deadline; a cold one waits the configured 500 ms and misses it.
  ServiceCatalog catalog = ChainCatalog();
  QueryServiceOptions opts = SimServiceOptions();
  opts.fault_plan.links[{"B", "A"}].outages_us = {{100 * kMs, 200 * kMs}};
  QueryRequest lossy = ChainRequest({"A", "B", "C", "D"});
  lossy.options.session_deadline_us = 450 * kMs;

  QueryService warm(catalog.store.get(), catalog.peers, opts);
  for (int i = 0; i < 10; ++i) {
    QueryResponsePtr r = Roundtrip(&warm, ChainRequest({"A", "B", "C"}));
    ASSERT_NE(r, nullptr);
    ASSERT_TRUE(r->status.ok()) << r->status;
  }
  QueryResponsePtr recovered = Roundtrip(&warm, lossy);
  ASSERT_NE(recovered, nullptr);
  EXPECT_TRUE(recovered->status.ok()) << recovered->status;

  QueryService cold(catalog.store.get(), catalog.peers, opts);
  QueryResponsePtr stalled = Roundtrip(&cold, lossy);
  ASSERT_NE(stalled, nullptr);
  EXPECT_EQ(stalled->status.code(), StatusCode::kDeadlineExceeded)
      << stalled->status;
}

TEST(AdaptiveRtoServiceTest, LossFreeSessionsOverUnevenLinksNeverRetransmit) {
  if constexpr (!obs::kMetricsEnabled) {
    GTEST_SKIP() << "counts retransmits through the metrics registry";
  }
  // At 1000 entities bursts of batches queue behind the receivers'
  // per-message overhead, so a link's round trips vary from session to
  // session: without the 2·max_recent guard these sessions send 40
  // spurious retransmits.
  BioConfig bio;
  bio.num_entities = 1000;
  auto catalog = BuildBioCatalog(bio);
  ASSERT_TRUE(catalog.ok()) << catalog.status();
  QueryServiceOptions opts = SimServiceOptions();
  // Links from 5 to 145 ms one way, different in each direction.
  int64_t latency_ms = 5;
  for (const PeerSpec& from : catalog.value().peers) {
    for (const PeerSpec& to : catalog.value().peers) {
      if (from.id == to.id) continue;
      opts.net_options.link_latency_us[{from.id, to.id}] = latency_ms * kMs;
      latency_ms = 5 + (latency_ms + 37) % 141;
    }
  }
  QueryService service(catalog.value().store.get(), catalog.value().peers,
                       opts);
  obs::Counter* retransmits =
      obs::MetricRegistry::Default().GetCounter("proto.retransmits");
  const uint64_t before = retransmits->value();
  const auto paths = BioWorkload::HugoMimPaths();
  for (size_t i = 0; i < 50; ++i) {
    QueryRequest req;
    req.path_peers = paths[i % paths.size()];
    req.x_attrs = {Attribute::String("Hugo_id")};
    req.y_attrs = {Attribute::String("MIM_id")};
    QueryResponsePtr r = Roundtrip(&service, std::move(req));
    ASSERT_NE(r, nullptr);
    ASSERT_TRUE(r->status.ok()) << "session " << i << ": " << r->status;
  }
  EXPECT_EQ(retransmits->value() - before, 0u);
}

}  // namespace
}  // namespace hyperion
