// Shared helpers for the Hyperion test suite: tiny finite domains for
// brute-force oracles, random mapping-table generation, set-comparison
// utilities, the four-peer chain the reliability tests run, and the
// in-process clusters the cluster suites start.

#ifndef HYPERION_TESTS_TEST_UTIL_H_
#define HYPERION_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster_config.h"
#include "cluster/node.h"
#include "common/random.h"
#include "core/compose.h"
#include "core/mapping_table.h"
#include "p2p/link_rtt.h"
#include "p2p/network.h"
#include "p2p/peer.h"
#include "service/catalogs.h"
#include "storage/table_store.h"

namespace hyperion {
namespace testing_util {

/// \brief A finite string domain {a, b, ..., size letters} shared by all
/// oracle tests.
inline DomainPtr SmallDomain(size_t size) {
  std::vector<Value> values;
  for (size_t i = 0; i < size; ++i) {
    values.emplace_back(std::string(1, static_cast<char>('a' + i)));
  }
  return Domain::Enumerated("small" + std::to_string(size),
                            std::move(values));
}

/// \brief Attribute over SmallDomain(size).
inline Attribute FiniteAttr(const std::string& name, size_t size) {
  return Attribute(name, SmallDomain(size));
}

/// \brief Sorted, deduplicated tuple list for set comparison.
inline std::vector<Tuple> Canon(std::vector<Tuple> tuples) {
  std::sort(tuples.begin(), tuples.end());
  tuples.erase(std::unique(tuples.begin(), tuples.end()), tuples.end());
  return tuples;
}

/// \brief A random cell over SmallDomain(domain_size): constant with
/// probability p_const, else a variable (fresh or reused) with a random
/// exclusion set.
inline Cell RandomCell(Rng* rng, size_t domain_size, VarId* next_var,
                       double p_const = 0.5, double p_reuse = 0.3,
                       double p_exclude = 0.3) {
  if (rng->Bernoulli(p_const)) {
    return Cell::Constant(
        Value(std::string(1, static_cast<char>('a' + rng->Uniform(
                                 0, static_cast<int64_t>(domain_size) - 1)))));
  }
  VarId var;
  if (*next_var > 0 && rng->Bernoulli(p_reuse)) {
    var = static_cast<VarId>(rng->Uniform(0, *next_var - 1));
  } else {
    var = (*next_var)++;
  }
  std::set<Value> exclusions;
  while (rng->Bernoulli(p_exclude) && exclusions.size() + 1 < domain_size) {
    exclusions.insert(Value(std::string(
        1, static_cast<char>('a' + rng->Uniform(
                                 0, static_cast<int64_t>(domain_size) - 1)))));
  }
  return Cell::Variable(var, std::move(exclusions));
}

/// \brief A random mapping table over finite domains; every attribute uses
/// SmallDomain(domain_size).
inline MappingTable RandomTable(Rng* rng, const std::vector<std::string>& x,
                                const std::vector<std::string>& y,
                                size_t rows, size_t domain_size) {
  std::vector<Attribute> xa;
  for (const std::string& n : x) xa.push_back(FiniteAttr(n, domain_size));
  std::vector<Attribute> ya;
  for (const std::string& n : y) ya.push_back(FiniteAttr(n, domain_size));
  auto table = MappingTable::Create(Schema(xa), Schema(ya));
  for (size_t r = 0; r < rows; ++r) {
    VarId next_var = 0;
    std::vector<Cell> cells;
    for (size_t i = 0; i < x.size() + y.size(); ++i) {
      cells.push_back(RandomCell(rng, domain_size, &next_var));
    }
    // Unsatisfiable rows are rejected by AddRow; just skip those.
    IgnoreStatus(table.value().AddRow(Mapping(std::move(cells))));
  }
  return std::move(table).value();
}

/// \brief Natural-join oracle over enumerated extensions.
inline std::vector<Tuple> JoinExtensions(const std::vector<Tuple>& a,
                                         const Schema& sa,
                                         const std::vector<Tuple>& b,
                                         const Schema& sb,
                                         const Schema& out) {
  std::vector<Tuple> result;
  for (const Tuple& ta : a) {
    for (const Tuple& tb : b) {
      bool match = true;
      for (size_t j = 0; j < sb.arity() && match; ++j) {
        auto i = sa.IndexOf(sb.attr(j).name());
        if (i && !(ta[*i] == tb[j])) match = false;
      }
      if (!match) continue;
      Tuple t(out.arity());
      for (size_t k = 0; k < out.arity(); ++k) {
        auto i = sa.IndexOf(out.attr(k).name());
        if (i) {
          t[k] = ta[*i];
        } else {
          auto j = sb.IndexOf(out.attr(k).name());
          t[k] = tb[*j];
        }
      }
      result.push_back(std::move(t));
    }
  }
  return Canon(std::move(result));
}

/// \brief Projection oracle over enumerated extensions.
inline std::vector<Tuple> ProjectExtension(const std::vector<Tuple>& ext,
                                           const Schema& schema,
                                           const std::vector<std::string>& to) {
  std::vector<size_t> positions;
  for (const std::string& n : to) positions.push_back(*schema.IndexOf(n));
  std::vector<Tuple> out;
  for (const Tuple& t : ext) out.push_back(ProjectTuple(t, positions));
  return Canon(std::move(out));
}

/// \brief A three-row table mapping `x_attr` values x1..x3 to `y_attr`
/// values y1..y3 (each value is its attribute name plus the digit).
inline MappingTable PairTable(const std::string& name,
                              const std::string& x_attr,
                              const std::string& y_attr) {
  MappingTable t =
      MappingTable::Create(Schema::Of({Attribute::String(x_attr)}),
                           Schema::Of({Attribute::String(y_attr)}), name)
          .value();
  for (const char* v : {"1", "2", "3"}) {
    EXPECT_TRUE(t.AddPair({Value(x_attr + v)}, {Value(y_attr + v)}).ok());
  }
  return t;
}

/// \brief A Network in front of a SimNetwork that shows every delivered
/// message to an observer just before its handler runs; everything else
/// is the sim's.
class TappedNetwork : public Network {
 public:
  using Observer = std::function<void(const Message&)>;

  explicit TappedNetwork(SimNetwork& sim) : sim_(sim) {}

  void SetObserver(Observer observer) { observer_ = std::move(observer); }

  Status RegisterPeer(const std::string& id, Handler handler) override {
    return sim_.RegisterPeer(
        id, [this, handler = std::move(handler)](const Message& msg) {
          if (observer_) observer_(msg);
          handler(msg);
        });
  }
  Status Send(Message msg) override { return sim_.Send(std::move(msg)); }
  Result<TimerId> ScheduleTimer(const std::string& peer, int64_t delay_us,
                                TimerCallback cb) override {
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
  Status Await(const std::function<bool()>& ready,
               const std::function<void()>& block) override {
    return sim_.Await(ready, block);
  }

 private:
  SimNetwork& sim_;
  Observer observer_;
};

/// \brief The reliability tests' chain A -> B -> C -> D on one
/// SimNetwork: peer P has attribute P_id, each hop one PairTable named
/// "m" + from + to, and every peer shares one LinkRttTable.  With
/// `split`, B's table toward C starts from a second attribute, B_x, so
/// the plan has two partitions.  Sessions run with a cache of one row.
class SimChain {
 public:
  static inline const std::vector<std::string> kPath = {"A", "B", "C", "D"};

  /// Round-number links with no byte or compute charge, so tests can
  /// pin exact virtual times.
  static SimNetwork::Options Options(int64_t latency_us,
                                     int64_t overhead_us) {
    SimNetwork::Options opts;
    opts.latency_us = latency_us;
    opts.per_message_overhead_us = overhead_us;
    opts.us_per_byte = 0;
    opts.compute_scale = 0;
    return opts;
  }

  SimChain(SimNetwork::Options options, FaultPlan plan, bool split = false)
      : net_(std::move(options)) {
    net_.SetFaultPlan(std::move(plan));
    for (const std::string& id : kPath) {
      AttributeSet attrs =
          split && id == "B"
              ? AttributeSet::Of({Attribute::String("B_id"),
                                  Attribute::String("B_x")})
              : AttributeSet::Of({Attribute::String(id + "_id")});
      peers_.push_back(
          std::make_unique<PeerNode>(id, std::move(attrs), link_rtt_));
      EXPECT_TRUE(peers_.back()->Attach(&net_).ok());
    }
    for (size_t i = 0; i + 1 < kPath.size(); ++i) {
      const std::string& next = kPath[i + 1];
      const std::string x_attr =
          split && kPath[i] == "B" ? "B_x" : kPath[i] + "_id";
      EXPECT_TRUE(peers_[i]
                      ->AddConstraintTo(
                          next, MappingConstraint(PairTable(
                                    "m" + kPath[i] + next, x_attr,
                                    next + "_id")))
                      .ok());
    }
  }

  /// Feeds every directed link `samples` round trips of `rtt_us`.
  void WarmLinks(int64_t rtt_us, int samples) {
    for (const std::string& from : kPath) {
      for (const std::string& to : kPath) {
        if (from == to) continue;
        for (int i = 0; i < samples; ++i) {
          link_rtt_->AddSample(from, to, rtt_us);
        }
      }
    }
  }

  /// Ends the session at every peer, each on its own timeline, when the
  /// initiator finishes — what QueryService does.
  void EndSessionsOnCompletion() {
    peers_.front()->SetSessionDoneCallback([this](SessionId id) {
      for (const std::unique_ptr<PeerNode>& peer : peers_) {
        PeerNode* p = peer.get();
        ASSERT_TRUE(
            net_.ScheduleTimer(p->id(), 0, [p, id] { p->EndSession(id); })
                .ok());
      }
    });
  }

  /// Runs the session to quiescence; returns the initiator's result and
  /// sets `end_us` to the network's final virtual time.
  const SessionResult* Run(
      int64_t* end_us,
      int64_t session_deadline_us = SessionOptions{}.session_deadline_us) {
    SessionOptions opts;
    opts.cache_capacity = 1;
    opts.session_deadline_us = session_deadline_us;
    auto session = peers_.front()->StartCoverSession(
        kPath, {Attribute::String("A_id")}, {Attribute::String("D_id")},
        opts);
    EXPECT_TRUE(session.ok()) << session.status();
    if (!session.ok()) return nullptr;
    session_ = session.value();
    auto end = net_.Run();
    EXPECT_TRUE(end.ok()) << end.status();
    *end_us = end.ok() ? end.value() : -1;
    auto result = peers_.front()->GetResult(session.value());
    EXPECT_TRUE(result.ok()) << result.status();
    return result.ok() ? result.value() : nullptr;
  }

  const SimNetwork& net() const { return net_; }
  const LinkRttTable& link_rtt() const { return *link_rtt_; }
  SessionId session() const { return session_; }

 private:
  SimNetwork net_;
  std::shared_ptr<LinkRttTable> link_rtt_ = std::make_shared<LinkRttTable>();
  std::vector<std::unique_ptr<PeerNode>> peers_;
  SessionId session_ = 0;
};

/// \brief The cluster suites' fixture: storage nodes and a coordinator
/// in this process, each on its own loopback TcpNetwork.  Every storage
/// node of the config holds its own copy of the bio catalog;
/// `reference_` is one more copy, the single-process replay the
/// cluster's answers are compared against.
class ClusterTest : public ::testing::Test {
 protected:
  /// Storage nodes bind ephemeral ports first; the coordinator then gets
  /// the resolved config (returned in `resolved` when given) — the same
  /// handshake tools/run_cluster.sh uses.
  void StartNodes(const cluster::ClusterConfig& seed, const BioConfig& bio,
                  cluster::ClusterConfig* resolved = nullptr) {
    for (const cluster::NodeSpec& spec : seed.nodes) {
      if (spec.role != cluster::NodeRole::kStorage) continue;
      auto catalog = BuildBioCatalog(bio);
      ASSERT_TRUE(catalog.ok());
      auto node = cluster::ClusterNode::Create(
          seed, spec.id, std::move(*catalog.value().store));
      ASSERT_TRUE(node.ok()) << node.status();
      ASSERT_TRUE(node.value()->Bind().ok());
      storage_.push_back(std::move(node).value());
    }

    cluster::ClusterConfig ports = seed;
    for (cluster::NodeSpec& spec : ports.nodes) {
      if (cluster::ClusterNode* storage = StorageNode(spec.id)) {
        auto port = storage->ListenPort();
        ASSERT_TRUE(port.ok());
        spec.port = port.value();
      }
    }
    for (const auto& storage : storage_) {
      ASSERT_TRUE(storage->Start().ok());
    }

    auto catalog = BuildBioCatalog(bio);
    ASSERT_TRUE(catalog.ok());
    reference_ = std::move(catalog.value().store);
    auto coord = cluster::ClusterNode::Create(ports, "coord", TableStore());
    ASSERT_TRUE(coord.ok()) << coord.status();
    ASSERT_TRUE(coord.value()->Bind().ok());
    ASSERT_TRUE(coord.value()->Start().ok());
    coord_ = std::move(coord).value();
    if (resolved != nullptr) *resolved = ports;
    ASSERT_TRUE(coord_->WaitAllAlive(15'000'000))
        << "cluster did not become fully alive";
  }

  void TearDown() override {
    if (coord_) coord_->Stop();
    for (auto& storage : storage_) storage->Stop();
  }

  /// Simulates a crash of `node`: its listener and event loop stop, so
  /// the coordinator's next send fails or times out.
  void StopStorageNode(const std::string& node) {
    if (cluster::ClusterNode* storage = StorageNode(node)) storage->Stop();
  }

  cluster::ClusterNode* StorageNode(const std::string& node) {
    for (auto& storage : storage_) {
      if (storage->self().id == node) return storage.get();
    }
    return nullptr;
  }

  std::vector<std::unique_ptr<cluster::ClusterNode>> storage_;
  std::unique_ptr<cluster::ClusterNode> coord_;
  std::unique_ptr<TableStore> reference_;
};

/// \brief A whole cluster on one SimNetwork: round-number links and no
/// compute charge (SimChain::Options), so a run is a function of its
/// config and its inputs, and tests pin exact virtual times.  Config
/// ports must be nonzero: on sim they only name the peers.  The nodes
/// run on a TappedNetwork over the sim, so a test can watch every
/// delivered message (OnDeliver).
class SimCluster {
 public:
  /// Every node registers before any starts, so the first beats reach
  /// everyone.
  SimCluster(cluster::ClusterConfig config, const BioConfig& bio,
             int64_t latency_us)
      : net_(SimChain::Options(latency_us, 0)), config_(std::move(config)) {
    auto catalog = BuildBioCatalog(bio);
    EXPECT_TRUE(catalog.ok());
    if (!catalog.ok()) return;
    reference_ = std::move(catalog.value().store);
    std::vector<cluster::ClusterNode*> nodes;
    for (const cluster::NodeSpec& spec : config_.nodes) {
      nodes.push_back(spec.role == cluster::NodeRole::kStorage
                          ? BindStorage(spec.id, bio)
                          : BindCoordinator(spec.id));
      if (nodes.back() == nullptr) return;
    }
    for (cluster::ClusterNode* node : nodes) {
      EXPECT_TRUE(node->Start().ok());
    }
  }

  /// Creates, binds and starts storage node `id` of the config, holding
  /// its own copy of the bio catalog.
  cluster::ClusterNode* AddStorage(const std::string& id,
                                   const BioConfig& bio) {
    cluster::ClusterNode* node = BindStorage(id, bio);
    if (node != nullptr) {
      EXPECT_TRUE(node->Start().ok());
    }
    return node;
  }

  /// Dispatches until `pred` holds, failing the test if `deadline_us`
  /// passes first.
  void RunUntil(const std::function<bool()>& pred, int64_t deadline_us) {
    auto done = net_.RunUntil(pred, deadline_us);
    ASSERT_TRUE(done.ok()) << done.status();
    EXPECT_TRUE(done.value()) << "not reached by t=" << deadline_us;
  }

  /// Dispatches every event due by `t_us`; the clock then stands there.
  void AdvanceTo(int64_t t_us) {
    auto done = net_.RunUntil(nullptr, t_us);
    EXPECT_TRUE(done.ok()) << done.status();
  }

  /// Every node alive in every node's eyes.
  bool AllAlive() const {
    if (!coord_->membership().AllAlive()) return false;
    for (const auto& storage : storage_) {
      if (!storage->membership().AllAlive()) return false;
    }
    return true;
  }

  cluster::ClusterNode* Storage(const std::string& id) {
    for (auto& storage : storage_) {
      if (storage->self().id == id) return storage.get();
    }
    return nullptr;
  }

  SimNetwork& net() { return net_; }
  void OnDeliver(TappedNetwork::Observer observer) {
    tap_.SetObserver(std::move(observer));
  }
  cluster::ClusterConfig& config() { return config_; }
  cluster::ClusterNode& coord() { return *coord_; }
  TableStore& reference() { return *reference_; }

 private:
  cluster::ClusterNode* BindStorage(const std::string& id,
                                    const BioConfig& bio) {
    auto catalog = BuildBioCatalog(bio);
    EXPECT_TRUE(catalog.ok());
    if (!catalog.ok()) return nullptr;
    auto node = cluster::ClusterNode::Create(
        config_, id, std::move(*catalog.value().store), tap_);
    EXPECT_TRUE(node.ok()) << node.status();
    if (!node.ok()) return nullptr;
    EXPECT_TRUE(node.value()->Bind().ok());
    storage_.push_back(std::move(node).value());
    return storage_.back().get();
  }

  cluster::ClusterNode* BindCoordinator(const std::string& id) {
    auto coord = cluster::ClusterNode::Create(config_, id, TableStore(), tap_);
    EXPECT_TRUE(coord.ok()) << coord.status();
    if (!coord.ok()) return nullptr;
    coord_ = std::move(coord).value();
    EXPECT_TRUE(coord_->Bind().ok());
    return coord_.get();
  }

  // Declared first, destroyed last: no node outlives the network it is
  // registered on.
  SimNetwork net_;
  TappedNetwork tap_{net_};
  cluster::ClusterConfig config_;
  std::vector<std::unique_ptr<cluster::ClusterNode>> storage_;
  std::unique_ptr<cluster::ClusterNode> coord_;
  std::unique_ptr<TableStore> reference_;
};

}  // namespace testing_util
}  // namespace hyperion

#endif  // HYPERION_TESTS_TEST_UTIL_H_
