// Failure behaviour of the distributed protocol: a peer that cannot
// complete its part must fail the session loudly at the initiator, not
// hang or deliver a partial cover silently.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "test_util.h"
#include "p2p/network.h"
#include "workload/bio_network.h"

namespace hyperion {
namespace {

struct LiveBio {
  BioWorkload workload;
  std::unique_ptr<SimNetwork> net;
  std::vector<std::unique_ptr<PeerNode>> peers;
  std::map<std::string, PeerNode*> by_id;
};

LiveBio BuildBio(size_t entities) {
  BioConfig config;
  config.num_entities = entities;
  auto workload = BioWorkload::Generate(config);
  EXPECT_TRUE(workload.ok());
  LiveBio live{std::move(workload).value(), std::make_unique<SimNetwork>(),
               {}, {}};
  auto peers = live.workload.BuildPeers();
  EXPECT_TRUE(peers.ok());
  live.peers = std::move(peers).value();
  for (auto& p : live.peers) {
    EXPECT_TRUE(p->Attach(live.net.get()).ok());
    live.by_id[p->id()] = p.get();
  }
  return live;
}

TEST(FaultInjectionTest, RowCapOverflowFailsSessionAtInitiator) {
  LiveBio live = BuildBio(200);
  SessionOptions opts;
  // Absurdly small cap: some peer's local join exceeds it immediately.
  opts.compose.max_result_rows = 3;
  auto session = live.by_id.at("Hugo")->StartCoverSession(
      {"Hugo", "GDB", "SwissProt", "MIM"}, {Attribute::String("Hugo_id")},
      {Attribute::String("MIM_id")}, opts);
  ASSERT_TRUE(session.ok()) << session.status();
  ASSERT_TRUE(live.net->Run().ok());
  auto result = live.by_id.at("Hugo")->GetResult(session.value());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value()->done);
  EXPECT_FALSE(result.value()->error.ok());
  EXPECT_NE(result.value()->error.ToString().find("max rows"),
            std::string::npos)
      << result.value()->error;
}

TEST(FaultInjectionTest, StrayMessagesAreIgnored) {
  LiveBio live = BuildBio(50);
  // Cover batch for a session nobody started: parked, then dropped when
  // no plan ever arrives.  FinalRows and plans for unknown sessions are
  // ignored outright.  Nothing should crash or be delivered.
  CoverBatchMsg batch;
  batch.session = 987654;
  batch.partition = 0;
  batch.schema = Schema::Of({Attribute::String("GDB_id")});
  batch.rows.push_back(Mapping::FromTuple({Value("GDB:000001")}));
  ASSERT_TRUE(live.net->Send(Message{"MIM", "GDB", batch}).ok());

  FinalRowsMsg final_rows;
  final_rows.session = 987654;
  final_rows.eos = true;
  ASSERT_TRUE(live.net->Send(Message{"MIM", "Hugo", final_rows}).ok());

  ComputePlanMsg plan;
  plan.spec.id = 31337;
  plan.spec.path_peers = {"NotUs", "AlsoNotUs"};
  ASSERT_TRUE(live.net->Send(Message{"MIM", "GDB", plan}).ok());

  ASSERT_TRUE(live.net->Run().ok());
  // A real session still works afterwards.
  auto session = live.by_id.at("Hugo")->StartCoverSession(
      {"Hugo", "MIM"}, {Attribute::String("Hugo_id")},
      {Attribute::String("MIM_id")});
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(live.net->Run().ok());
  auto result = live.by_id.at("Hugo")->GetResult(session.value());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value()->done);
  EXPECT_TRUE(result.value()->error.ok());
}

TEST(FaultInjectionTest, BatchForUnownedPartitionFailsLoudly) {
  LiveBio live = BuildBio(50);
  // Run a real session first so GDB has participant state...
  auto session = live.by_id.at("Hugo")->StartCoverSession(
      {"Hugo", "GDB", "MIM"}, {Attribute::String("Hugo_id")},
      {Attribute::String("MIM_id")});
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(live.net->Run().ok());
  // ...then inject a batch for a partition index that does not exist.
  CoverBatchMsg batch;
  batch.session = session.value();
  batch.partition = 99;
  batch.schema = Schema::Of({Attribute::String("GDB_id")});
  ASSERT_TRUE(live.net->Send(Message{"MIM", "GDB", batch}).ok());
  ASSERT_TRUE(live.net->Run().ok());
  // The completed session keeps its result; the stray failure arrives
  // after done and is ignored.
  auto result = live.by_id.at("Hugo")->GetResult(session.value());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value()->done);
}

TEST(FaultInjectionTest, TinyCachesStillProduceCorrectCovers) {
  // Degenerate cache (flush every mapping) across a multi-partition
  // workload must still converge to the right answer — stress for the
  // EOS/flush bookkeeping.
  LiveBio live = BuildBio(80);
  SessionOptions opts;
  opts.cache_capacity = 0;  // flush every single mapping
  auto session = live.by_id.at("Hugo")->StartCoverSession(
      {"Hugo", "GDB", "MIM"}, {Attribute::String("Hugo_id")},
      {Attribute::String("MIM_id")}, opts);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(live.net->Run().ok());
  auto result = live.by_id.at("Hugo")->GetResult(session.value());
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result.value()->error.ok()) << result.value()->error;
  EXPECT_GT(result.value()->cover.size(), 0u);
}

// --- FaultPlan-driven tests: the reliability layer under injected ---
// --- drops, duplicates, jitter and crashes.                        ---

const std::vector<std::string> kFivePeerPath = {"Hugo", "Locus", "GDB",
                                                "SwissProt", "MIM"};

// Runs one cover session on a fresh copy of the bio workload under
// `plan` (empty = fault-free) and returns the initiator's result.
struct FaultRun {
  bool done = false;
  Status error = Status::OK();
  std::string cover;           // MappingTable::Serialize() of the result
  int64_t virtual_end_us = 0;  // SimNetwork::Run() return value
  NetworkStats net;
};

FaultRun RunUnderFaults(size_t entities, const FaultPlan& plan,
                        SessionOptions opts = {}) {
  LiveBio live = BuildBio(entities);
  if (!plan.empty()) live.net->SetFaultPlan(plan);
  FaultRun out;
  auto session = live.by_id.at("Hugo")->StartCoverSession(
      kFivePeerPath, {Attribute::String("Hugo_id")},
      {Attribute::String("MIM_id")}, opts);
  EXPECT_TRUE(session.ok()) << session.status();
  if (!session.ok()) return out;
  auto end = live.net->Run();
  EXPECT_TRUE(end.ok()) << end.status();
  if (!end.ok()) return out;
  out.virtual_end_us = end.value();
  out.net = live.net->stats();
  auto result = live.by_id.at("Hugo")->GetResult(session.value());
  EXPECT_TRUE(result.ok()) << result.status();
  if (!result.ok()) return out;
  out.done = result.value()->done;
  out.error = result.value()->error;
  out.cover = result.value()->cover.Serialize();
  return out;
}

TEST(FaultInjectionTest, CoverByteIdenticalUnderLoss) {
  // The determinism claim: with retransmission and per-channel in-order
  // delivery, up to 20% loss (plus duplication and jitter) changes the
  // traffic but not a single byte of the computed cover.
  FaultRun baseline = RunUnderFaults(250, FaultPlan{});
  ASSERT_TRUE(baseline.done);
  ASSERT_TRUE(baseline.error.ok()) << baseline.error;
  ASSERT_FALSE(baseline.cover.empty());
  for (double loss : {0.05, 0.10, 0.20}) {
    FaultPlan plan;
    plan.seed = 17;
    plan.default_link.drop_rate = loss;
    plan.default_link.dup_rate = loss / 2;
    plan.default_link.delay_jitter_us = 10'000;
    FaultRun faulty = RunUnderFaults(250, plan);
    ASSERT_TRUE(faulty.done) << "loss " << loss;
    ASSERT_TRUE(faulty.error.ok()) << "loss " << loss << ": " << faulty.error;
    EXPECT_GT(faulty.net.drops_injected, 0u) << "loss " << loss;
    EXPECT_EQ(faulty.cover, baseline.cover)
        << "cover diverged at loss " << loss;
  }
}

TEST(FaultInjectionTest, CrashedMidPathPeerFailsLoudlyNamingIt) {
  // SwissProt is dead from t=0.  GDB's forward of the session init can
  // never be acked; after the retransmit budget is spent the failure
  // must surface at Hugo, name SwissProt, and arrive well before the
  // session deadline.
  FaultPlan plan;
  plan.crashes["SwissProt"] = {0, -1};
  FaultRun run = RunUnderFaults(120, plan);
  ASSERT_TRUE(run.done);
  EXPECT_FALSE(run.error.ok());
  EXPECT_NE(run.error.ToString().find("SwissProt"), std::string::npos)
      << run.error;
  EXPECT_EQ(run.error.code(), StatusCode::kUnavailable) << run.error;
  // Default deadline is 120s of virtual time; exhausting 5 retransmits
  // at 500ms with doubling takes ~31.5s, so the error beats it easily.
  EXPECT_LT(run.virtual_end_us, 120'000'000);
  EXPECT_GT(run.net.crash_discards, 0u);
}

TEST(FaultInjectionTest, CrashedAdjacentPeerReportedByInitiatorLocally) {
  // Crash the peer right next to the initiator.  Hugo's own session-init
  // send to Locus exhausts its retransmit budget; since Hugo is the
  // initiator the failure is integrated locally rather than routed over
  // the network, and the error still names the unreachable peer with
  // its true status class.  A short retransmit timeout keeps the whole
  // exchange far under the session deadline.
  FaultPlan plan;
  plan.crashes["Locus"] = {0, -1};
  SessionOptions opts;
  opts.retransmit_timeout_us = 100'000;
  FaultRun run = RunUnderFaults(120, plan, opts);
  ASSERT_TRUE(run.done);
  EXPECT_FALSE(run.error.ok());
  EXPECT_EQ(run.error.code(), StatusCode::kUnavailable) << run.error;
  EXPECT_NE(run.error.ToString().find("Locus"), std::string::npos)
      << run.error;
}

TEST(FaultInjectionTest, SeededFaultSoakAlwaysTerminates) {
  // Randomized soak: across several fault seeds at a bruising 15% loss
  // the session must always terminate (done flips), and every run that
  // completes must produce the byte-identical cover.
  FaultRun baseline = RunUnderFaults(150, FaultPlan{});
  ASSERT_TRUE(baseline.done);
  ASSERT_TRUE(baseline.error.ok()) << baseline.error;
  for (uint64_t seed : {1u, 7u, 23u, 99u, 512u, 4711u}) {
    FaultPlan plan;
    plan.seed = seed;
    plan.default_link.drop_rate = 0.15;
    plan.default_link.dup_rate = 0.10;
    plan.default_link.delay_jitter_us = 30'000;
    FaultRun run = RunUnderFaults(150, plan);
    ASSERT_TRUE(run.done) << "seed " << seed << " did not terminate";
    if (run.error.ok()) {
      EXPECT_EQ(run.cover, baseline.cover) << "seed " << seed;
    } else {
      // A loud, attributed failure is acceptable under heavy loss; a
      // hang or a silent partial cover is not.
      EXPECT_FALSE(run.error.ToString().empty());
    }
  }
}

TEST(FaultInjectionTest, SameSeedReplaysIdenticalFaults) {
  FaultPlan plan;
  plan.seed = 1234;
  plan.default_link.drop_rate = 0.10;
  plan.default_link.dup_rate = 0.05;
  plan.default_link.delay_jitter_us = 15'000;
  FaultRun a = RunUnderFaults(150, plan);
  FaultRun b = RunUnderFaults(150, plan);
  ASSERT_TRUE(a.done);
  ASSERT_TRUE(b.done);
  // Virtual end time is NOT compared: handler compute is measured on
  // the host clock, so it wobbles by a few microseconds between runs.
  // The fault draws and the result must not.
  EXPECT_EQ(a.net.drops_injected, b.net.drops_injected);
  EXPECT_EQ(a.net.duplicates_injected, b.net.duplicates_injected);
  EXPECT_EQ(a.net.messages_sent, b.net.messages_sent);
  EXPECT_EQ(a.cover, b.cover);
}

TEST(FaultInjectionTest, UnknownSessionParkingIsBounded) {
  // A peer floods GDB with cover batches for sessions nobody started.
  // The parking buffer must cap out and evict oldest-first rather than
  // grow without bound.
  LiveBio live = BuildBio(30);
#if HYPERION_METRICS
  obs::Counter* evicted =
      obs::MetricRegistry::Default().GetCounter("proto.parked_evicted");
  const uint64_t before = evicted->value();
#endif
  for (uint64_t i = 0; i < 600; ++i) {
    CoverBatchMsg batch;
    batch.session = 1'000'000 + i;
    batch.partition = 0;
    batch.schema = Schema::Of({Attribute::String("GDB_id")});
    ASSERT_TRUE(live.net->Send(Message{"MIM", "GDB", batch}).ok());
  }
  ASSERT_TRUE(live.net->Run().ok());
#if HYPERION_METRICS
  EXPECT_EQ(evicted->value() - before, 600u - 512u);
#endif
  // The peer still works afterwards.
  auto session = live.by_id.at("Hugo")->StartCoverSession(
      {"Hugo", "GDB", "MIM"}, {Attribute::String("Hugo_id")},
      {Attribute::String("MIM_id")});
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(live.net->Run().ok());
  auto result = live.by_id.at("Hugo")->GetResult(session.value());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value()->done);
  EXPECT_TRUE(result.value()->error.ok()) << result.value()->error;
}

// --- A transport that refuses retransmit timers.                   ---

// SimNetwork behind a Network stub whose ScheduleTimer fails for `peer`
// once that peer has armed `arm_ok` timers — as a transport that is
// shutting down would refuse them.
class TimerRefusingNetwork : public Network {
 public:
  TimerRefusingNetwork(std::string peer, int arm_ok)
      : peer_(std::move(peer)), arm_ok_(arm_ok) {}

  Status RegisterPeer(const std::string& id, Handler handler) override {
    return sim_.RegisterPeer(id, std::move(handler));
  }
  Status Send(Message msg) override { return sim_.Send(std::move(msg)); }
  Result<TimerId> ScheduleTimer(const std::string& peer, int64_t delay_us,
                                TimerCallback cb) override {
    if (peer == peer_ && arm_ok_-- <= 0) {
      return Status::ResourceExhausted("timer table full");
    }
    return sim_.ScheduleTimer(peer, delay_us, std::move(cb));
  }
  void CancelTimer(TimerId id) override { sim_.CancelTimer(id); }
  void SetFaultPlan(FaultPlan plan) override {
    sim_.SetFaultPlan(std::move(plan));
  }
  int64_t now_us() const override { return sim_.now_us(); }
  void ChargeCompute(int64_t micros) override { sim_.ChargeCompute(micros); }
  NetworkStats stats() const override { return sim_.stats(); }
  void ResetStats() override { sim_.ResetStats(); }
  Result<int64_t> Run() { return sim_.Run(); }

 private:
  SimNetwork sim_;
  std::string peer_;
  int arm_ok_;
};

// Runs Hugo -> GDB -> SwissProt -> MIM on `net` under `plan`; returns the
// initiator's final result.
SessionResult RunWithRefusedTimers(TimerRefusingNetwork* net,
                                   const FaultPlan& plan) {
  BioConfig config;
  config.num_entities = 60;
  auto workload = BioWorkload::Generate(config);
  EXPECT_TRUE(workload.ok());
  auto peers = workload.value().BuildPeers();
  EXPECT_TRUE(peers.ok());
  PeerNode* hugo = nullptr;
  for (auto& p : peers.value()) {
    EXPECT_TRUE(p->Attach(net).ok());
    if (p->id() == "Hugo") hugo = p.get();
  }
  net->SetFaultPlan(plan);
  auto session = hugo->StartCoverSession(
      {"Hugo", "GDB", "SwissProt", "MIM"}, {Attribute::String("Hugo_id")},
      {Attribute::String("MIM_id")});
  EXPECT_TRUE(session.ok()) << session.status();
  if (!session.ok()) return {};
  EXPECT_TRUE(net->Run().ok());
  auto result = hugo->GetResult(session.value());
  EXPECT_TRUE(result.ok());
  return result.ok() ? *result.value() : SessionResult{};
}

TEST(FaultInjectionTest, UnarmableRetransmitTimerFailsSessionLoudly) {
  // GDB can arm no timer, and its forward of the session init to
  // SwissProt is lost.  Without a timer nothing would ever resend it and
  // the session would sit until the 120 s deadline; instead GDB fails
  // the session at once, and the report reaches Hugo with the timer's
  // status, the peer and the phase.
  TimerRefusingNetwork net("GDB", /*arm_ok=*/0);
  FaultPlan plan;
  plan.links[{"GDB", "SwissProt"}].outages_us = {{0, 1'000'000}};
  SessionResult result = RunWithRefusedTimers(&net, plan);
  ASSERT_TRUE(result.done);
  EXPECT_EQ(result.error.code(), StatusCode::kResourceExhausted)
      << result.error;
  EXPECT_NE(result.error.message().find("'SwissProt'"), std::string::npos)
      << result.error;
  EXPECT_NE(result.error.message().find("information gathering"),
            std::string::npos)
      << result.error;
  EXPECT_LT(result.stats.complete_us, 1'000'000);
}

TEST(FaultInjectionTest, RetransmitTimerThatCannotBeReArmedFailsLoudly) {
  // Hugo arms its session deadline and the first retransmit timer of
  // its init to GDB, but not the timer after the first retransmission.
  // Both copies are lost; the session must fail when the re-arm fails,
  // not hang until the deadline.
  TimerRefusingNetwork net("Hugo", /*arm_ok=*/2);
  FaultPlan plan;
  plan.links[{"Hugo", "GDB"}].outages_us = {{0, 2'000'000}};
  SessionResult result = RunWithRefusedTimers(&net, plan);
  ASSERT_TRUE(result.done);
  EXPECT_EQ(result.error.code(), StatusCode::kResourceExhausted)
      << result.error;
  EXPECT_NE(result.error.message().find("'GDB'"), std::string::npos)
      << result.error;
  EXPECT_NE(result.error.message().find("information gathering"),
            std::string::npos)
      << result.error;
  EXPECT_LT(result.stats.complete_us, 1'000'000);
}

}  // namespace
}  // namespace hyperion
