// cluster-rw and cluster-churn: three storage nodes (child processes)
// plus an in-process coordinator, replication 2, 8 shards, write quorum
// 1.  A QueryService with the cover cache on reads through the
// coordinator's ClusterTableSource (wrapped in the TracedSource
// decorator) and runs its sessions on the sim transport.  Curator writes
// follow the REPL `write` sequence: Fetch, merge one seeded row, Apply,
// EvictTable.  cluster-churn's event queries (failover, degraded) go
// through a second QueryService with the cover cache off, so each one
// does the same work: every path table fetched from the storage nodes,
// then the whole cover session.
//
// Correctness: every (path, table versions) a query was answered at is
// recorded; after the timed phase each is recomputed by a single-process
// sim QueryService over a mirrored TableStore that replayed the same
// writes, and the covers are byte-compared.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <numeric>
#include <random>
#include <thread>
#include <tuple>

#include "cluster/cluster_config.h"
#include "cluster/node.h"
#include "procs.h"
#include "service/catalogs.h"
#include "workload/bio_network.h"
#include "workloads.h"

namespace perfbench {

using namespace hyperion;  // NOLINT

namespace {

const std::vector<std::string> kStores = {"store1", "store2", "store3"};
constexpr uint64_t kShards = 8;
// Queries per curator write ("about 9 queries to 1 write").
constexpr uint64_t kQueriesPerWrite = 9;
// cluster-churn: degraded queries per cycle.
constexpr size_t kDegradedPerCycle = 7;
// cluster-churn: churn cycles per --seconds.  The event medians need
// this many events to hold still from run to run.
constexpr size_t kCyclesPerSecond = 1;
// Workers that recompute the recorded covers after the timed phase.
constexpr size_t kCheckThreads = 4;
// cluster-churn: background ops are paced one per slot.
constexpr auto kLoadSlot = std::chrono::milliseconds(20);

cluster::ClusterConfig SeedConfig() {
  cluster::ClusterConfig config;
  config.shard_count = kShards;
  config.replication = 2;
  // Short timers keep the timer-bound events (suspicion, repair) tight.
  // suspect_ms stays well above two replica timeouts, so the failover
  // query (two tables, each first tried on the dead primary) always
  // pays exactly two timeouts instead of racing the suspect transition.
  config.heartbeat_ms = 20;
  config.suspect_ms = 300;
  config.down_ms = 1000;
  config.fetch_timeout_ms = 5000;
  config.replica_timeout_ms = 100;
  config.fetch_attempts = 2;
  config.fetch_backoff_ms = 50;
  config.write_quorum = 1;
  config.write_timeout_ms = 5000;
  config.write_attempts = 3;
  config.write_backoff_ms = 20;
  config.repair_interval_ms = 20;
  config.nodes = {{"coord", cluster::NodeRole::kCoordinator, "127.0.0.1", 0}};
  for (const std::string& id : kStores) {
    config.nodes.push_back({id, cluster::NodeRole::kStorage, "127.0.0.1", 0});
  }
  return config;
}

void WriteConfig(const cluster::ClusterConfig& config,
                 const std::string& path) {
  std::ofstream out(path);
  out << config.ToString();
  if (!out.flush()) Fail("cannot write " + path);
}

std::string VersionsKey(size_t path, const TableVersions& versions) {
  std::string key = std::to_string(path);
  for (const auto& [table, version] : versions) {
    key += "|" + table + "@" + std::to_string(version);
  }
  return key;
}

// Mirror of every table version the cluster served, and every cover it
// answered with, for the post-run reference comparison.  Both are kept
// serialized: as live tables they grew the process by ~1 MiB per write,
// so peak RSS followed how many ops the host's speed allowed.
class Verifier {
 public:
  // Records what `table` holds at `version`.  A committed write replaces
  // what a failed one left there.
  void AddVersion(const std::string& table, uint64_t version,
                  std::shared_ptr<const MappingTable> content) {
    std::string text = content->Serialize();
    std::lock_guard<std::mutex> lock(mu_);
    history_[table][version] = std::move(text);
    committed_[table] = std::max(committed_[table], version);
    latest_[table] = {version, std::move(content)};
  }

  // The version the last committed write of `table` made.
  uint64_t Committed(const std::string& table) {
    std::lock_guard<std::mutex> lock(mu_);
    return committed_[table];
  }

  // A write that reported failure may still have reached some shards,
  // which anti-entropy then spreads: its content becomes a version the
  // cluster can serve, unless a committed write takes that version.  A
  // later failed write from the same base replaces it: the earlier one
  // had not surfaced when that write fetched its base.
  void AddFailedWrite(const std::string& table, uint64_t version,
                      std::shared_ptr<const MappingTable> content) {
    std::string text = content->Serialize();
    std::lock_guard<std::mutex> lock(mu_);
    if (version > committed_[table]) {
      history_[table][version] = std::move(text);
      latest_[table] = {version, std::move(content)};
    }
  }

  // What `table` holds at `version`; null when no write produced it.
  std::shared_ptr<const MappingTable> At(const std::string& table,
                                         uint64_t version) {
    std::lock_guard<std::mutex> lock(mu_);
    auto latest = latest_.find(table);
    if (latest != latest_.end() && latest->second.first == version) {
      return latest->second.second;
    }
    const std::string* text = TextAt(table, version);
    if (!text) return nullptr;
    auto parsed = MappingTable::Parse(*text);
    if (!parsed.ok()) Fail("mirror of " + table + " does not parse");
    return std::make_shared<const MappingTable>(std::move(parsed).value());
  }

  void Record(size_t path, const QueryResponse& response, uint64_t op) {
    const std::string key = VersionsKey(path, response.table_versions);
    {
      // A cache hit hands back the cover object recorded last time.
      std::lock_guard<std::mutex> lock(mu_);
      auto it = seen_.find(key);
      if (it != seen_.end() && it->second.last.lock() == response.cover) {
        return;
      }
    }
    std::string text = response.cover->Serialize();
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, fresh] = seen_.try_emplace(
        key, Seen{path, response.table_versions, text, op, {}});
    it->second.last = response.cover;
    if (!fresh && it->second.cover != text && mismatch_.empty()) {
      mismatch_ = "op " + std::to_string(op) + " answered " + key +
                  " differently from an earlier op";
    }
  }

  // Recomputes every recorded cover single-process; returns the first
  // mismatch ("" when all agree).  The covers are independent, so
  // `threads` workers split them; nothing else runs by then.
  std::string Check(const ServiceCatalog& catalog,
                    const std::vector<std::vector<std::string>>& paths,
                    size_t threads) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!mismatch_.empty()) return mismatch_;
    std::vector<const std::pair<const std::string, Seen>*> work;
    for (const auto& entry : seen_) work.push_back(&entry);
    std::atomic<size_t> next{0};
    std::mutex found_mu;
    std::string found;
    std::vector<std::thread> workers;
    for (size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&] {
        for (size_t i = next++; i < work.size(); i = next++) {
          std::string error = CheckOne(catalog, paths, work[i]->first,
                                       work[i]->second);
          if (!error.empty()) {
            std::lock_guard<std::mutex> lock(found_mu);
            if (found.empty()) found = std::move(error);
            next = work.size();
          }
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    return found;
  }

  size_t distinct() {
    std::lock_guard<std::mutex> lock(mu_);
    return seen_.size();
  }

 private:
  struct Seen {
    size_t path = 0;
    TableVersions versions;
    std::string cover;  // serialized
    uint64_t op = 0;
    std::weak_ptr<const MappingTable> last;  // the cover object last seen
  };

  // One recorded cover against the single-process reference over the
  // mirrored table versions.  Requires mu_ (held by Check's caller).
  std::string CheckOne(const ServiceCatalog& catalog,
                       const std::vector<std::vector<std::string>>& paths,
                       const std::string& key, const Seen& seen) {
    QueryServiceOptions opts;
    opts.num_workers = 1;
    opts.cache_entries = 0;
    TableStore mirror;
    for (const std::string& name :
         PathTables(catalog.peers, paths[seen.path])) {
      auto table = catalog.store->Get(name);
      if (!table.ok()) return "catalog lost table " + name;
      MappingTable content = *table.value();
      auto version = seen.versions.find(name);
      if (version != seen.versions.end()) {
        const std::string* text = TextAt(name, version->second);
        if (!text) {
          return "op " + std::to_string(seen.op) + " saw " + name + "@" +
                 std::to_string(version->second) +
                 ", a version no write produced";
        }
        auto parsed = MappingTable::Parse(*text);
        if (!parsed.ok()) return "mirror of " + name + " does not parse";
        content = std::move(parsed).value();
      }
      if (!mirror.Put(content).ok()) return "mirror put failed";
    }
    QueryService reference(&mirror, catalog.peers, opts);
    QueryResponsePtr want = reference.Execute(PathRequest(paths[seen.path]));
    if (!want->status.ok()) {
      return "reference query failed: " + want->status.ToString();
    }
    if (want->cover->Serialize() != seen.cover) {
      return "cover of " + PathName(paths[seen.path]) + " at op " +
             std::to_string(seen.op) + " (" + key +
             ") differs from the mirrored single-process reference";
    }
    return "";
  }

  // Requires mu_.
  const std::string* TextAt(const std::string& table, uint64_t version) {
    auto h = history_.find(table);
    if (h == history_.end()) return nullptr;
    auto v = h->second.find(version);
    return v == h->second.end() ? nullptr : &v->second;
  }

  std::mutex mu_;
  // Serialized content per table and version.
  std::map<std::string, std::map<uint64_t, std::string>> history_;
  // The version of each table last added, live, for the next write.
  std::map<std::string,
           std::pair<uint64_t, std::shared_ptr<const MappingTable>>>
      latest_;
  std::map<std::string, uint64_t> committed_;
  std::map<std::string, Seen> seen_;
  std::string mismatch_;
};

// One running cluster plus the service reading through it.
struct Rig {
  ServiceCatalog catalog;
  std::string dir;
  cluster::ClusterConfig resolved;  // every node's port, coordinator's too
  std::string resolved_path;
  std::map<std::string, std::unique_ptr<StorageProc>> stores;
  std::unique_ptr<cluster::ClusterNode> coord;
  std::unique_ptr<TracedSource> traced;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<QueryService> events;  // churn event queries, cache off
  Verifier verifier;

  ~Rig() {
    events.reset();
    service.reset();
    if (coord) coord->Stop();
    stores.clear();
  }

  std::string LogDir(const std::string& id) const { return dir + "/log-" + id; }
};

// Starts the cluster and its services.  A churn rig gives its storage
// nodes write logs (so a restarted node repairs from its own log), runs
// two service workers (background load and events) and has the event
// service.
std::unique_ptr<Rig> StartRig(const Args& args, const std::string& dir,
                              bool churn) {
  auto rig = std::make_unique<Rig>();
  rig->dir = dir;
  std::filesystem::create_directories(dir);
  BioConfig bio;
  bio.num_entities = kEntities;
  auto catalog = BuildBioCatalog(bio);
  if (!catalog.ok()) Fail("catalog: " + catalog.status().ToString());
  rig->catalog = std::move(catalog).value();

  cluster::ClusterConfig seed = SeedConfig();
  WriteConfig(seed, dir + "/seed.conf");
  rig->resolved = seed;
  for (const std::string& id : kStores) {
    rig->stores[id] = StorageProc::Spawn(id, dir + "/seed.conf", kEntities,
                                         churn ? rig->LogDir(id) : "");
  }
  for (cluster::NodeSpec& node : rig->resolved.nodes) {
    auto it = rig->stores.find(node.id);
    if (it != rig->stores.end()) node.port = it->second->port();
  }
  auto coord = cluster::ClusterNode::Create(rig->resolved, "coord",
                                            TableStore());
  if (!coord.ok()) Fail("coordinator: " + coord.status().ToString());
  rig->coord = std::move(coord).value();
  if (Status s = rig->coord->Bind(); !s.ok()) Fail("bind: " + s.ToString());
  auto port = rig->coord->ListenPort();
  if (!port.ok()) Fail("coordinator port");
  for (cluster::NodeSpec& node : rig->resolved.nodes) {
    if (node.id == "coord") node.port = port.value();
  }
  rig->resolved_path = dir + "/resolved.conf";
  WriteConfig(rig->resolved, rig->resolved_path);
  if (Status s = rig->coord->Start(); !s.ok()) Fail("start: " + s.ToString());
  if (!rig->coord->WaitAllAlive(10'000'000)) {
    Fail("cluster did not become fully alive");
  }

  rig->traced = std::make_unique<TracedSource>(
      rig->coord->table_source(), "cluster.Fetch", args.fetch_delay_us);
  QueryServiceOptions opts;
  opts.num_workers = churn ? 2 : 1;
  opts.queue_capacity = 16;
  opts.cache_entries = 1024;
  opts.transport = ServiceTransport::kSim;
  rig->service = std::make_unique<QueryService>(
      rig->traced.get(), rig->catalog.peers, opts);
  if (churn) {
    opts.num_workers = 1;
    opts.cache_entries = 0;
    rig->events = std::make_unique<QueryService>(
        rig->traced.get(), rig->catalog.peers, opts);
  }

  // Warm-up: every table over the wire (checked against the catalog) and
  // every path once, filling both caches.
  for (const std::string& name : rig->catalog.store->Names()) {
    auto fetched = rig->coord->table_source()->Fetch(name);
    auto local = rig->catalog.store->Get(name);
    if (!fetched.ok() || !local.ok() ||
        fetched.value().table->Serialize() != local.value()->Serialize()) {
      Fail("warm-up fetch of " + name + " differs from the catalog");
    }
    rig->verifier.AddVersion(name, fetched.value().version, local.value());
  }
  const auto paths = BioWorkload::HugoMimPaths();
  for (size_t p = 0; p < paths.size(); ++p) {
    QueryResponsePtr r = rig->service->Execute(PathRequest(paths[p]));
    if (!r->status.ok()) Fail("warm-up query: " + r->status.ToString());
    rig->verifier.Record(p, *r, 0);
  }
  return rig;
}

// What the timed ops of either workload log.
struct OpLog {
  Samples query_untraced, query_traced, write;
  uint64_t attempted = 0, failed = 0, queries_ok = 0, writes = 0;
  uint64_t cover_misses = 0;  // queries the cover cache did not answer
  // Time windows of the timed phase (cluster-rw); one window otherwise.
  Clock::time_point start = Clock::now();
  int seconds = 1;
  size_t windows = 1;
  std::vector<uint64_t> completed = {0};  // queries per window, in time
  double lagging = 0;
  std::vector<ProbeJob> jobs;  // traced ops, probed afterwards
};

// The client side of one op: a query through `service` or a curator
// write on one of the path's tables.
class Client {
 public:
  Client(Rig* rig, QueryService* service, const Args& args, uint64_t stream)
      : rig_(rig),
        service_(service),
        args_(args),
        paths_(BioWorkload::HugoMimPaths()),
        rng_(args.seed * 7919 + stream),
        stream_(stream) {}

  // Runs op number `op`.  Ops come in blocks of one group per path, the
  // groups in seeded order.  A group is a curator write to one of its
  // path's tables (rotating block by block), then one query of every
  // path plus kQueriesPerWrite - 7 more of its own, in seeded order.
  // Every path is thus queried between two writes, so each cover-cache
  // miss refetches exactly the one table the last write evicted, and a
  // block's work does not depend on the seed, only its order does.  (A
  // plain shuffle let two writes land on one path's tables before its
  // next query, and the seed moved qps and the tail by 10-40%.)
  void Step(uint64_t op, OpLog* log) {
    if (next_ == block_.size()) Refill();
    const BlockOp& step = block_[next_++];
    if (step.table.empty()) {
      Query(step.path, op, log);
    } else {
      Write(step.table, op, log);
    }
  }

  // One query; returns its latency in ms.  An `event` query (the churn
  // thread's) first drops the coordinator's assembled tables, so its
  // fetches go to the storage nodes, and lands in `event` instead of the
  // log's samples.
  double Query(size_t p, uint64_t op, OpLog* log, Samples* event = nullptr) {
    const bool traced = args_.trace && op % 2 == 1;
    OpScope scope(op, traced);
    if (event) rig_->coord->table_source()->Evict();
    QueryService& service = *service_;
    ++log->attempted;
    QueryResponsePtr response;
    const auto t0 = Clock::now();
    {
      SpanScope span("op.query");
      Result<QueryFuture> future = [&] {
        SpanScope submit("service.Submit");
        return service.Submit(PathRequest(paths_[p]));
      }();
      if (future.ok()) {
        SpanScope wait("service.Wait");
        response = future.value().get();
      } else {
        NoteFailure(args_.workload, op, future.status().ToString());
      }
    }
    const auto done = Clock::now();
    const double ms = MsBetween(t0, done);
    const size_t window =
        WindowOf(log->start, log->seconds, log->windows, done);
    Samples* samples =
        event ? event : (traced ? &log->query_traced : &log->query_untraced);
    if (!response || !response->status.ok()) {
      if (response) {
        NoteFailure(args_.workload, op, response->status.ToString());
      }
      ++log->failed;
      samples->Add(kFailedMs, window);
      return kFailedMs;
    }
    samples->Add(ms, window);
    ++log->queries_ok;
    if (done <= log->start + std::chrono::seconds(log->seconds)) {
      ++log->completed[window];
    }
    if (!response->from_cache) ++log->cover_misses;
    rig_->verifier.Record(p, *response, op);
    if (traced) {
      ProbeJob job;
      job.op = op;
      job.path = p;
      job.cover = response->cover;
      job.tables = std::make_shared<const SnapshotSource>(
          *rig_->coord->table_source(), rig_->catalog.peers, paths_[p]);
      job.latency_ms = ms;
      job.miss = !response->from_cache;
      log->jobs.push_back(std::move(job));
    }
    return ms;
  }

  void Write(const std::string& table, uint64_t op, OpLog* log) {
    const bool traced = args_.trace && op % 2 == 1;
    OpScope scope(op, traced);
    ++log->attempted;
    const std::string tag = "pb" + std::to_string(args_.seed) + "-" +
                            std::to_string(stream_) + "-" +
                            std::to_string(op);
    const auto t0 = Clock::now();
    Result<cluster::ClusterTableSink::WriteReport> report =
        Status::Internal("not run");
    Result<VersionedTable> fetched = Status::Internal("not run");
    MappingTable merged;
    {
      SpanScope span("op.write");
      fetched = rig_->traced->Fetch(table);
      if (fetched.ok()) {
        merged = WithRow(*fetched.value().table, tag);
        {
          SpanScope apply("cluster.Apply");
          report = rig_->coord->table_sink()->Apply(
              merged, fetched.value().version + 1);
        }
        SpanScope evict("cluster.EvictTable");
        rig_->coord->table_source()->EvictTable(table);
      }
    }
    const double ms = MsBetween(t0, Clock::now());
    // The mirror applies the same row to its copy of the fetched version,
    // which must be the last committed one or what a failed write left
    // after it.
    std::shared_ptr<const MappingTable> mirror;
    if (fetched.ok()) {
      const uint64_t version = fetched.value().version;
      const uint64_t committed = rig_->verifier.Committed(table);
      mirror = rig_->verifier.At(table, version);
      if (version < committed || !mirror) {
        Fail(args_.workload + ": op " + std::to_string(op) + " fetched " +
             table + "@" + std::to_string(version) +
             " but the last committed write made version " +
             std::to_string(committed) + " (seed " +
             std::to_string(args_.seed) + ")");
      }
    }
    if (!fetched.ok() || !report.ok()) {
      NoteFailure(args_.workload, op,
                  (fetched.ok() ? report.status() : fetched.status())
                      .ToString());
      ++log->failed;
      log->write.Add(kFailedMs);
      if (fetched.ok()) {
        rig_->verifier.AddFailedWrite(
            table, fetched.value().version + 1,
            std::make_shared<const MappingTable>(WithRow(*mirror, tag)));
      }
      return;
    }
    log->write.Add(ms);
    ++log->writes;
    log->lagging += static_cast<double>(report.value().lagging.size());
    rig_->verifier.AddVersion(
        table, report.value().table_version,
        std::make_shared<const MappingTable>(WithRow(*mirror, tag)));
    if (traced) {
      ProbeJob job;
      job.op = op;
      job.written = std::make_shared<const MappingTable>(std::move(merged));
      job.version = report.value().table_version;
      log->jobs.push_back(std::move(job));
    }
  }

 private:
  struct BlockOp {
    size_t path = 0;
    std::string table;  // empty for a query
  };

  void Refill() {
    block_.clear();
    std::vector<size_t> order(paths_.size());
    std::iota(order.begin(), order.end(), 0);
    std::shuffle(order.begin(), order.end(), rng_);
    for (size_t p : order) {
      const std::vector<std::string> tables =
          PathTables(rig_->catalog.peers, paths_[p]);
      block_.push_back({p, tables[blocks_ % tables.size()]});
      std::vector<size_t> queries = order;
      queries.resize(kQueriesPerWrite, p);
      std::shuffle(queries.begin(), queries.end(), rng_);
      for (size_t q : queries) block_.push_back({q, ""});
    }
    next_ = 0;
    ++blocks_;
  }

  Rig* rig_;
  QueryService* service_;
  const Args& args_;
  std::vector<std::vector<std::string>> paths_;
  std::mt19937_64 rng_;
  uint64_t stream_;
  std::vector<BlockOp> block_;
  size_t next_ = 0;
  uint64_t blocks_ = 0;
};

template <typename Pred>
double WaitUntil(Pred pred, const std::string& what) {
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::seconds(30);
  while (!pred()) {
    if (Clock::now() > deadline) Fail("timed out waiting for " + what);
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return MsBetween(t0, Clock::now());
}

size_t TotalRows(const TableSource& source, const ServiceCatalog& catalog) {
  size_t rows = 0;
  for (const std::string& name : catalog.store->Names()) {
    auto fetched = source.Fetch(name);
    if (fetched.ok()) rows += fetched.value().table->size();
  }
  return rows;
}

struct ChurnLog {
  std::vector<double> failover_ms, suspect_ms, repair_ms, rebalance_ms;
  std::vector<double> repair_fetches, repair_entries, handoff_rows;
  Samples degraded;
  double reroutes = 0;
};

// `cycles` churn cycles.  Each kills the primary of shard 0, runs one
// failover query and the degraded queries, restarts the victim and waits
// for its repair, then joins a fresh spare and decommissions it.
void RunChurn(Rig* rig, size_t cycles, Client* client,
              std::atomic<uint64_t>* next_op, OpLog* log, ChurnLog* churn) {
  cluster::ClusterNode& coord = *rig->coord;
  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  obs::Counter* reroutes = reg.GetCounter("cluster.failover.reroutes");
  obs::Counter* shipped = reg.GetCounter("cluster.rebalance.rows_shipped");
  // Event queries read fixed paths, so each event's work is the same in
  // every cycle and run: the failover query the shortest path (two
  // tables, so exactly two dead-replica timeouts), the degraded queries
  // the longest (the most degraded shard fetches).
  const size_t failover_path = 2;
  const size_t degraded_path = 0;
  auto stable = [&] {
    if (coord.pending_epoch() != 0) return false;
    for (const auto& member : coord.membership().Snapshot()) {
      if (member.state != cluster::MemberState::kAlive) return false;
    }
    return true;
  };
  for (size_t cycle = 0; cycle < cycles; ++cycle) {
    WaitUntil(stable, "a stable, fully alive cluster");
    const std::string victim = coord.ring()->OwnerForShard(0);
    const uint64_t seq_at_kill = coord.table_sink()->committed_sequence();
    const uint64_t reroutes_before = reroutes->value();
    const auto t_kill = Clock::now();
    rig->stores.at(victim)->Kill();
    Samples failover;
    churn->failover_ms.push_back(
        client->Query(failover_path, next_op->fetch_add(1), log, &failover));
    WaitUntil([&] {
      return coord.membership().StateOf(victim) !=
             cluster::MemberState::kAlive;
    }, victim + " suspect");
    churn->suspect_ms.push_back(MsBetween(t_kill, Clock::now()));
    for (size_t i = 0; i < kDegradedPerCycle; ++i) {
      client->Query(degraded_path, next_op->fetch_add(1), log,
                    &churn->degraded);
    }
    churn->reroutes += static_cast<double>(reroutes->value() - reroutes_before);
    // Repair needs a write the victim missed; the background writer
    // commits one every few hundred ms.
    WaitUntil([&] {
      return coord.table_sink()->committed_sequence() > seq_at_kill;
    }, "a write while " + victim + " is dead");
    const uint64_t target = coord.table_sink()->committed_sequence();
    rig->stores[victim] = StorageProc::Spawn(victim, rig->resolved_path,
                                             kEntities, rig->LogDir(victim));
    const StorageProc::Converged converged =
        rig->stores[victim]->AwaitVersion(target);
    churn->repair_ms.push_back(
        static_cast<double>(converged.at_ns -
                            rig->stores[victim]->start_ns()) / 1e6);
    churn->repair_fetches.push_back(
        static_cast<double>(converged.repair_fetches));
    churn->repair_entries.push_back(
        static_cast<double>(converged.repair_entries));

    // Rebalance: join a fresh spare, then decommission it.
    WaitUntil(stable, "a stable, fully alive cluster");
    const std::string spare_id = "spare" + std::to_string(cycle + 1);
    cluster::ClusterConfig spare_config = rig->resolved;
    spare_config.nodes.push_back(
        {spare_id, cluster::NodeRole::kStorage, "127.0.0.1", 0});
    const std::string spare_path = rig->dir + "/" + spare_id + ".conf";
    WriteConfig(spare_config, spare_path);
    std::unique_ptr<StorageProc> spare =
        StorageProc::Spawn(spare_id, spare_path, kEntities, "");
    for (int step = 0; step < 2; ++step) {
      const uint64_t shipped_before = shipped->value();
      const auto t0 = Clock::now();
      Result<uint64_t> epoch =
          step == 0 ? coord.StartJoin(spare_id, "127.0.0.1:" +
                                                    std::to_string(
                                                        spare->port()))
                    : coord.StartDecommission(spare_id);
      if (!epoch.ok()) {
        Fail(std::string(step == 0 ? "join" : "decommission") + " of " +
             spare_id + ": " + epoch.status().ToString());
      }
      WaitUntil([&] {
        return coord.ring_epoch() >= epoch.value() &&
               coord.pending_epoch() == 0;
      }, "epoch " + std::to_string(epoch.value()) + " to commit");
      churn->rebalance_ms.push_back(MsBetween(t0, Clock::now()));
      churn->handoff_rows.push_back(
          static_cast<double>(shipped->value() - shipped_before));
    }
    spare->Stop();
  }
}

}  // namespace

Outcome RunClusterWorkload(const Args& args, bool churn) {
  const std::string name = args.workload;
  const auto paths = BioWorkload::HugoMimPaths();

  // --- set-up, repeated; the last one is measured -------------------------
  std::vector<double> setup_ms;
  std::unique_ptr<Rig> rig;
  for (int round = 0; round < kSetups; ++round) {
    rig.reset();
    const auto t0 = Clock::now();
    rig = StartRig(args, args.workdir + "/setup" + std::to_string(round),
                   churn);
    setup_ms.push_back(MsBetween(t0, Clock::now()));
  }
  const size_t rows_before = TotalRows(*rig->coord->table_source(),
                                       rig->catalog);

  // --- timed phase ---------------------------------------------------------
  CounterDelta counters;
  const auto net_before = obs::MetricRegistry::Default().Snapshot();
  std::atomic<uint64_t> next_op{1};
  OpLog log;
  ChurnLog churn_log;
  size_t cycles = 0;
  const auto start = Clock::now();
  if (!churn) {
    log.start = start;
    log.seconds = args.seconds;
    log.windows = kWindows;
    log.completed.assign(kWindows, 0);
    Client client(rig.get(), rig->service.get(), args, 0);
    const auto deadline = start + std::chrono::seconds(args.seconds);
    while (Clock::now() < deadline) client.Step(next_op.fetch_add(1), &log);
  } else {
    // Background reads and writes, paced, for the whole churn phase.
    OpLog load_log;
    std::atomic<bool> stop{false};
    std::thread load([&] {
      Client client(rig.get(), rig->service.get(), args, 1);
      auto slot = Clock::now();
      while (!stop.load()) {
        client.Step(next_op.fetch_add(1), &load_log);
        // Paced, not open loop: an op that overran its slot delays the
        // next one instead of causing a catch-up burst.
        slot = std::max(slot + kLoadSlot, Clock::now());
        std::this_thread::sleep_until(slot);
      }
    });
    Client events(rig.get(), rig->events.get(), args, 2);
    cycles = kCyclesPerSecond * static_cast<size_t>(args.seconds);
    RunChurn(rig.get(), cycles, &events, &next_op, &log, &churn_log);
    stop.store(true);
    load.join();
    log.query_untraced.Append(load_log.query_untraced);
    log.query_traced.Append(load_log.query_traced);
    log.write.Append(load_log.write);
    log.attempted += load_log.attempted;
    log.failed += load_log.failed;
    log.queries_ok += load_log.queries_ok;
    log.cover_misses += load_log.cover_misses;
    log.writes += load_log.writes;
    log.lagging += load_log.lagging;
    for (ProbeJob& job : load_log.jobs) log.jobs.push_back(std::move(job));
  }
  const double elapsed_s = MsBetween(start, Clock::now()) / 1000.0;
  const size_t rows_after = TotalRows(*rig->coord->table_source(),
                                      rig->catalog);
  const auto net_after = obs::MetricRegistry::Default().Snapshot();

  // Layer probes for the traced ops, now that nothing is timed.
  LayerProbe probe;
  std::vector<std::tuple<uint64_t, double, double>> traced_misses;  // op, ms, core
  for (const ProbeJob& job : log.jobs) {
    OpScope scope(job.op, true);
    if (job.written) {
      probe.Shards(*job.written, job.version, *rig->coord->ring(), kShards);
      continue;
    }
    const double core_ms =
        probe.Cover(*job.tables, rig->catalog.peers, paths[job.path]);
    if (job.miss) traced_misses.emplace_back(job.op, job.latency_ms, core_ms);
    probe.WireCover(*job.cover);
  }
  const std::vector<Span> spans = RecordedSpans();

  // --- correctness -----------------------------------------------------------
  const auto check_start = Clock::now();
  const std::string mismatch =
      rig->verifier.Check(rig->catalog, paths, kCheckThreads);
  const double check_s = MsBetween(check_start, Clock::now()) / 1000.0;
  if (!mismatch.empty()) {
    Fail(name + ": " + mismatch + " (seed " + std::to_string(args.seed) +
         ")");
  }

  // --- results -------------------------------------------------------------
  Outcome out;
  out.attempted = log.attempted;
  out.failed = log.failed;
  // A healthy cluster fails no op and retries no shard fetch.
  if (!churn && out.failed > 0) {
    out.violations.push_back(std::to_string(out.failed) + " of " +
                             std::to_string(out.attempted) +
                             " ops failed on a healthy cluster");
  }
  // cluster-rw's query figures are its closed loop's; cluster-churn's
  // are its event queries' (a fixed count per cycle: the first query
  // after each kill, then the degraded ones), since how many background
  // queries overlap a transition varies from run to run.
  Samples queries;
  if (!churn) {
    queries.Append(log.query_untraced);
    queries.Append(log.query_traced);
  } else {
    for (double ms : churn_log.failover_ms) queries.Add(ms);
    queries.Append(churn_log.degraded);
  }
  double query_tail_pct = 0, write_tail_pct = 0;
  out.end_to_end["setup_s"] = {MedianOf(setup_ms) / 1000.0, "s"};
  out.end_to_end["query_p50_ms"] = {queries.Median(), "ms"};
  out.end_to_end["query_tail_ms"] = {queries.WindowedTail(&query_tail_pct),
                                     "ms"};
  // cluster-rw: the median window's rate, counting completions inside
  // the timed phase only.
  out.end_to_end["query_qps"] = {
      churn ? static_cast<double>(log.queries_ok) / elapsed_s
            : MedianRate(log.completed, args.seconds),
      "1/s"};
  out.end_to_end["write_p50_ms"] = {log.write.Median(), "ms"};
  out.end_to_end["write_tail_ms"] = {log.write.Tail(&write_tail_pct), "ms"};

  if (args.trace) {
    const std::vector<int64_t> self = SelfTimesNs(spans);
    auto& L = out.per_layer;
    const double hits = counters.Delta("cluster.table_cache_hits");
    const double misses = counters.Delta("cluster.table_cache_misses");
    L["cluster.attempts_per_shard_fetch"] = {
        Ratio(counters.Delta("cluster.replica.attempts"),
              counters.Delta("cluster.shard_fetches")),
        "ratio"};
    if (!churn && L["cluster.attempts_per_shard_fetch"].value != 1.0) {
      out.violations.push_back(
          "shard fetches retried on a healthy cluster: attempts_per_shard_fetch " +
          JsonNumber(L["cluster.attempts_per_shard_fetch"].value));
    }
    L["cluster.fetch_ms"] = {
        SpanMedianMs(spans, self, "cluster.Fetch", false, 1), "ms"};
    L["cluster.fetch_hit_ratio"] = {Ratio(hits, hits + misses), "ratio"};
    L["trace.overhead_pct"] = {
        (Ratio(log.query_traced.Median(), log.query_untraced.Median()) - 1) *
            100.0,
        "%"};
    AddServiceCoreMetrics(spans, self, counters, &out);
    // A miss's protocol time: its latency minus its table fetches and
    // minus the engine time of the same cover.
    std::map<uint64_t, double> fetch_ms;
    for (const Span& s : spans) {
      if (std::string_view(s.name) == "cluster.Fetch") {
        fetch_ms[s.op] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      }
    }
    std::vector<double> protocol;
    for (const auto& [op, ms, core_ms] : traced_misses) {
      protocol.push_back(ms - core_ms - fetch_ms[op]);
    }
    L["p2p.protocol_ms"] = {MedianOf(protocol), "ms"};
    AddP2pCounterMetrics(net_before, net_after, "sim", counters, &out);
    L["storage.slice_ms"] = {
        SpanMedianMs(spans, self, "storage.SliceTable", false), "ms"};
    L["storage.assemble_ms"] = {
        SpanMedianMs(spans, self, "storage.AssembleTable", false), "ms"};
    L["cluster.write_apply_ms"] = {
        SpanMedianMs(spans, self, "cluster.Apply", false), "ms"};
    L["cluster.write_retries_per_write"] = {
        Ratio(counters.Delta("cluster.write.retries"),
              static_cast<double>(log.writes)),
        "ratio"};
    L["cluster.write_lagging"] = {
        Ratio(log.lagging, static_cast<double>(log.writes)), "replicas"};
    probe.AddWireMetrics(&out);
    if (churn) {
      // Per-event medians over the run's fixed event count.  Not in the
      // manifest, so they print on the context line.
      L["cluster.failover_ms"] = {MedianOf(churn_log.failover_ms), "ms"};
      L["cluster.rebalance_ms"] = {MedianOf(churn_log.rebalance_ms), "ms"};
      L["cluster.repair_ms"] = {MedianOf(churn_log.repair_ms), "ms"};
      L["cluster.reroutes"] = {
          Ratio(churn_log.reroutes, static_cast<double>(cycles)), "count"};
      L["cluster.suspect_ms"] = {MedianOf(churn_log.suspect_ms), "ms"};
      L["cluster.repair_fetches"] = {MedianOf(churn_log.repair_fetches),
                                     "count"};
      L["cluster.repair_entries"] = {MedianOf(churn_log.repair_entries),
                                     "count"};
      L["cluster.handoff_rows"] = {MedianOf(churn_log.handoff_rows), "rows"};
      L["cluster.epoch_refetches"] = {
          counters.Delta("cluster.epoch.refetches"), "count"};
    }
    const std::string path = args.workdir + "/spans-" + name + ".jsonl";
    if (!WriteSpans(spans, path)) Fail("cannot write " + path);
    out.context["spans"] = path;
  }
  out.context["entities"] = std::to_string(kEntities);
  out.context["storage_nodes"] = "3 processes, replication 2, 8 shards";
  out.context["clients"] =
      churn ? "1 paced (1 op / 20 ms) + 1 churn thread (own front end, "
              "cover cache off)"
            : "1 closed loop";
  out.context["read_write"] = std::to_string(kQueriesPerWrite) + ":1 (seeded order)";
  out.context["writes"] = std::to_string(log.writes);
  out.context["cover_misses"] = std::to_string(log.cover_misses);
  out.context["query_samples"] = std::to_string(queries.size());
  out.context["query_tail_pct"] = JsonNumber(query_tail_pct);
  out.context["windows"] = std::to_string(log.windows);
  out.context["write_samples"] = std::to_string(log.write.size());
  out.context["write_tail_pct"] = JsonNumber(write_tail_pct);
  out.context["table_rows_growth"] =
      std::to_string(rows_before) + " -> " + std::to_string(rows_after);
  out.context["distinct_covers_checked"] =
      std::to_string(rig->verifier.distinct());
  out.context["check_s"] = JsonNumber(check_s);
  out.context["setup_ms"] = Joined(setup_ms);
  // Tear the cluster down first: RUSAGE_CHILDREN only covers reaped
  // storage nodes.
  rig.reset();
  out.end_to_end["peak_rss_mb"] = {PeakRssMb(), "MiB"};
  out.context["peak_rss"] = "self + largest reaped storage node";

  if (churn) {
    out.context["cycles"] = std::to_string(cycles);
    out.context["failover_ms"] = JsonNumber(MedianOf(churn_log.failover_ms));
    out.context["degraded_query_p50_ms"] =
        JsonNumber(churn_log.degraded.Median());
    out.context["repair_ms"] = JsonNumber(MedianOf(churn_log.repair_ms));
    out.context["rebalance_ms"] =
        JsonNumber(MedianOf(churn_log.rebalance_ms));
    out.context["degraded_samples"] =
        std::to_string(churn_log.degraded.size());
    out.context["rebalance_samples"] =
        std::to_string(churn_log.rebalance_ms.size());
  }
  return out;
}

}  // namespace perfbench
