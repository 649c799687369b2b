#include "service/query_service.h"

#include <atomic>
#include <functional>
#include <utility>

#include "obs/metrics.h"
#include "p2p/peer.h"
#include "p2p/tcp_network.h"

namespace hyperion {

Result<ServiceTransport> ParseServiceTransport(const std::string& name) {
  if (name == "sim") return ServiceTransport::kSim;
  if (name == "tcp") return ServiceTransport::kTcp;
  return Status::InvalidArgument("unknown transport '" + name +
                                 "' (expected sim | tcp)");
}

const char* ServiceTransportName(ServiceTransport transport) {
  switch (transport) {
    case ServiceTransport::kSim:
      return "sim";
    case ServiceTransport::kTcp:
      return "tcp";
  }
  return "unknown";
}

namespace {

int64_t ElapsedUs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

// Runs `fn` when it goes out of scope.
class ScopeExit {
 public:
  explicit ScopeExit(std::function<void()> fn) : fn_(std::move(fn)) {}
  ~ScopeExit() { fn_(); }
  ScopeExit(const ScopeExit&) = delete;
  ScopeExit& operator=(const ScopeExit&) = delete;

 private:
  std::function<void()> fn_;
};

void AppendNames(std::string* out, const std::vector<Attribute>& attrs) {
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (i) out->push_back(',');
    out->append(attrs[i].name());
  }
}

}  // namespace

QueryService::QueryService(const TableSource* source,
                           std::vector<PeerSpec> peers,
                           QueryServiceOptions options)
    : source_(source),
      options_(options),
      cache_(options.cache_entries) {
  for (PeerSpec& spec : peers) {
    std::string id = spec.id;
    specs_.emplace(std::move(id), std::move(spec));
  }
  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  m_requests_ = reg.GetCounter("service.requests");
  m_rejects_ = reg.GetCounter("service.admission_rejects");
  m_cache_hits_ = reg.GetCounter("service.cache_hits");
  m_cache_misses_ = reg.GetCounter("service.cache_misses");
  m_coalesced_ = reg.GetCounter("service.coalesced");
  m_executed_ = reg.GetCounter("service.sessions_executed");
  m_failed_ = reg.GetCounter("service.failed_responses");
  m_queue_depth_ = reg.GetGauge("service.queue_depth");
  m_latency_ = reg.GetHistogram("service.latency_us", obs::LatencyBoundsUs());
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryService::~QueryService() { Shutdown(); }

Result<QueryService::PathSnapshot> QueryService::Snapshot(
    const QueryRequest& request) const {
  if (request.path_peers.size() < 2) {
    return Status::InvalidArgument(
        "query path must name at least two peers");
  }
  PathSnapshot snapshot;
  for (const std::string& id : request.path_peers) {
    auto it = specs_.find(id);
    if (it == specs_.end()) {
      std::string msg = "service does not serve peer '";
      msg.append(id);
      msg.append("'");
      return Status::NotFound(std::move(msg));
    }
    snapshot.specs.push_back(&it->second);
  }
  for (size_t hop = 0; hop + 1 < request.path_peers.size(); ++hop) {
    const PeerSpec& spec = *snapshot.specs[hop];
    const std::string& next = request.path_peers[hop + 1];
    auto edge = spec.tables_to.find(next);
    if (edge == spec.tables_to.end() || edge->second.empty()) {
      std::string msg = "peer '";
      msg.append(spec.id);
      msg.append("' holds no mapping tables toward '");
      msg.append(next);
      msg.append("'");
      return Status::NotFound(std::move(msg));
    }
    std::vector<VersionedTable> tables;
    for (const std::string& table_name : edge->second) {
      HYP_ASSIGN_OR_RETURN(VersionedTable vt, source_->Fetch(table_name));
      snapshot.versions[table_name] = vt.version;
      tables.push_back(std::move(vt));
    }
    snapshot.hop_tables.push_back(std::move(tables));
    snapshot.hop_table_names.push_back(edge->second);
  }
  return snapshot;
}

std::string QueryService::LogicalKey(const QueryRequest& request,
                                     const PathSnapshot& snapshot) {
  std::string key = "path=";
  for (size_t i = 0; i < request.path_peers.size(); ++i) {
    if (i) key.push_back(',');
    key.append(request.path_peers[i]);
  }
  key.append("|x=");
  AppendNames(&key, request.x_attrs);
  key.append("|y=");
  AppendNames(&key, request.y_attrs);
  key.append("|tables=");
  for (size_t hop = 0; hop < snapshot.hop_table_names.size(); ++hop) {
    if (hop) key.push_back(';');
    for (size_t i = 0; i < snapshot.hop_table_names[hop].size(); ++i) {
      if (i) key.push_back(',');
      key.append(snapshot.hop_table_names[hop][i]);
    }
  }
  // Only the options that change the *result* participate in the key;
  // tuning knobs (cache capacity, retransmit schedule, deadline) reshape
  // traffic but the protocol's cover is invariant to them.
  key.append("|opts=");
  key.push_back(request.options.semijoin_filters ? '1' : '0');
  key.push_back(request.options.combine_partitions ? '1' : '0');
  return key;
}

std::string QueryService::FlightKey(const std::string& logical_key,
                                    const TableVersions& versions) {
  std::string key = logical_key;
  key.append("|v=");
  for (const auto& [name, version] : versions) {
    key.append(name);
    key.push_back('@');
    key.append(std::to_string(version));
    key.push_back(';');
  }
  return key;
}

Result<QueryFuture> QueryService::Submit(QueryRequest request) {
  auto submitted_at = std::chrono::steady_clock::now();
  m_requests_->Add(1);
  {
    MutexLock lock(mu_);
    ++stats_.submitted;
    if (shutdown_) {
      return Status::Unavailable("query service is shut down");
    }
  }
  auto snapshot = Snapshot(request);
  if (!snapshot.ok()) return snapshot.status();
  std::string logical_key = LogicalKey(request, snapshot.value());

  if (std::shared_ptr<const MappingTable> cached =
          cache_.Lookup(logical_key, snapshot.value().versions)) {
    m_cache_hits_->Add(1);
    auto response = std::make_shared<QueryResponse>();
    response->status = Status::OK();
    response->cover = std::move(cached);
    response->from_cache = true;
    response->table_versions = snapshot.value().versions;
    response->latency_us = ElapsedUs(submitted_at);
    m_latency_->Observe(response->latency_us);
    std::promise<QueryResponsePtr> ready;
    ready.set_value(std::move(response));
    MutexLock lock(mu_);
    ++stats_.cache_hits;
    return QueryFuture(ready.get_future().share());
  }

  std::string flight_key = FlightKey(logical_key, snapshot.value().versions);
  MutexLock lock(mu_);
  if (shutdown_) {
    return Status::Unavailable("query service is shut down");
  }
  if (auto it = in_flight_.find(flight_key); it != in_flight_.end()) {
    ++stats_.coalesced;
    m_coalesced_->Add(1);
    return it->second->future;
  }
  if (queue_.size() >= options_.queue_capacity) {
    ++stats_.admission_rejects;
    m_rejects_->Add(1);
    std::string msg = "admission queue full (";
    msg.append(std::to_string(queue_.size()));
    msg.append(" requests waiting); retry later");
    return Status::ResourceExhausted(std::move(msg));
  }
  ++stats_.cache_misses;
  m_cache_misses_->Add(1);
  auto flight = std::make_shared<Flight>();
  flight->request = std::move(request);
  flight->logical_key = std::move(logical_key);
  flight->flight_key = flight_key;
  flight->versions = std::move(snapshot.value().versions);
  flight->future = flight->promise.get_future().share();
  flight->submitted_at = submitted_at;
  in_flight_.emplace(std::move(flight_key), flight);
  queue_.push_back(flight);
  m_queue_depth_->Set(static_cast<int64_t>(queue_.size()));
  work_cv_.NotifyOne();
  return flight->future;
}

QueryResponsePtr QueryService::Execute(QueryRequest request) {
  auto submitted_at = std::chrono::steady_clock::now();
  auto future = Submit(std::move(request));
  if (!future.ok()) {
    auto response = std::make_shared<QueryResponse>();
    response->status = future.status();
    response->latency_us = ElapsedUs(submitted_at);
    {
      MutexLock lock(mu_);
      ++stats_.failed;
    }
    m_failed_->Add(1);
    return response;
  }
  return future.value().get();
}

bool QueryService::RunQueuedOnce() {
  std::shared_ptr<Flight> flight;
  {
    MutexLock lock(mu_);
    if (queue_.empty()) return false;
    flight = queue_.front();
    queue_.pop_front();
    m_queue_depth_->Set(static_cast<int64_t>(queue_.size()));
  }
  ExecuteFlight(flight);
  return true;
}

void QueryService::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Flight> flight;
    {
      MutexLock lock(mu_);
      work_cv_.Wait(mu_, [this]() REQUIRES(mu_) {
        return shutdown_ || !queue_.empty();
      });
      if (shutdown_) return;  // Shutdown() fails whatever is still queued
      flight = queue_.front();
      queue_.pop_front();
      m_queue_depth_->Set(static_cast<int64_t>(queue_.size()));
    }
    ExecuteFlight(flight);
  }
}

Result<MappingTable> QueryService::RunSession(const QueryRequest& request,
                                              const PathSnapshot& snapshot) {
  // Fresh peers per execution: protocol state never crosses worker
  // threads.  A sim session gets a fresh network too (its virtual clock
  // must start at 0).  A tcp session takes a running network from
  // idle_tcp_ and keeps its listeners, loop thread and connections.  Only
  // those networks, the link RTT estimates (link_rtt_) and the join
  // indexes (join_indexes_) carry over between sessions.
  std::unique_ptr<SimNetwork> sim;
  std::unique_ptr<TcpNetwork> tcp;
  Network* net = nullptr;
  std::function<Status()> run;
  switch (options_.transport) {
    case ServiceTransport::kSim:
      sim = std::make_unique<SimNetwork>(options_.net_options);
      net = sim.get();
      run = [&sim] { return sim->Run().status(); };
      break;
    case ServiceTransport::kTcp:
      {
        MutexLock lock(mu_);
        if (!idle_tcp_.empty()) {
          tcp = std::move(idle_tcp_.back());
          idle_tcp_.pop_back();
        }
      }
      if (tcp == nullptr) {
        tcp = std::make_unique<TcpNetwork>();
        HYP_RETURN_IF_ERROR(tcp->Start());
      }
      net = tcp.get();
      run = [&tcp] { return tcp->WaitQuiescent(); };
      break;
  }
  std::vector<std::unique_ptr<PeerNode>> peers;
  // Declared after `peers`, so on every exit path it runs while they
  // still exist: at quiescence no frame or timer of this session is
  // left to reach them or the next session's peers.
  ScopeExit recycle([&] {
    if (tcp == nullptr) return;
    IgnoreStatus(tcp->WaitQuiescent());
    for (const std::string& id : request.path_peers) tcp->DetachPeer(id);
    tcp->SetFaultPlan(FaultPlan());
    MutexLock lock(mu_);
    idle_tcp_.push_back(std::move(tcp));
  });
  if (!options_.fault_plan.empty()) {
    // Perturb the seed per execution so a retried query does not replay
    // the exact fault sequence that killed its predecessor.
    static std::atomic<uint64_t> execution_ordinal{0};
    FaultPlan plan = options_.fault_plan;
    plan.seed += execution_ordinal.fetch_add(1, std::memory_order_relaxed);
    // Plan times count from session start; a pooled network's clock
    // started with its first session.
    net->SetFaultPlan(plan.ShiftedBy(net->now_us()));
  }
  peers.reserve(snapshot.specs.size());
  for (const PeerSpec* spec : snapshot.specs) {
    peers.push_back(
        std::make_unique<PeerNode>(spec->id, spec->attributes, link_rtt_,
                                   join_indexes_));
    HYP_RETURN_IF_ERROR(peers.back()->Attach(net));
  }
  for (size_t hop = 0; hop + 1 < peers.size(); ++hop) {
    for (const VersionedTable& vt : snapshot.hop_tables[hop]) {
      HYP_RETURN_IF_ERROR(peers[hop]->AddConstraintTo(
          request.path_peers[hop + 1], MappingConstraint(vt.table)));
    }
  }
  PeerNode& initiator = *peers.front();
  // Once the initiator is done the cover is complete (or failed), and
  // nothing still pending can change it: end the session at every path
  // peer, so run() returns once the frames in flight are handled instead
  // of after the retransmit timers for acks that were lost.  Each peer
  // ends it on its own timeline, by a zero-delay timer rather than a
  // call from this callback: on sim that is at the peer's own virtual
  // time, and on tcp it is after the initiator's handler has returned,
  // like any other handler of that peer.
  initiator.SetSessionDoneCallback([&peers, net](SessionId id) {
    for (const std::unique_ptr<PeerNode>& peer : peers) {
      PeerNode* p = peer.get();
      // Best-effort: a peer that cannot take the timer just keeps its
      // retransmit timers, which end on their own, as before.
      IgnoreStatus(
          net->ScheduleTimer(p->id(), 0, [p, id] { p->EndSession(id); })
              .status());
    }
  });
  Result<SessionId> session = Status::Unavailable(
      "initiator was down when its session was due to start");
  auto start = [&] {
    session = initiator.StartCoverSession(
        request.path_peers, request.x_attrs, request.y_attrs,
        request.options);
  };
  if (tcp != nullptr) {
    // The loop is already running: start on it, or the first ack could
    // reach the initiator before StartCoverSession records its sends.
    HYP_RETURN_IF_ERROR(
        tcp->ScheduleTimer(initiator.id(), 0, start).status());
  } else {
    start();
  }
  HYP_RETURN_IF_ERROR(run());
  HYP_RETURN_IF_ERROR(session.status());
  HYP_ASSIGN_OR_RETURN(SessionResult result,
                       initiator.TakeResult(session.value()));
  if (!result.done) {
    return Status::Internal("session did not complete after network drain");
  }
  if (!result.error.ok()) return result.error;
  return std::move(result.cover);
}

void QueryService::ExecuteFlight(const std::shared_ptr<Flight>& flight) {
  std::shared_ptr<QueryResponse> response = std::make_shared<QueryResponse>();
  // Re-snapshot: the catalog may have moved since admission.  The session
  // runs on the freshest tables, and the result is cached under the
  // versions it was actually computed from.
  auto snapshot = Snapshot(flight->request);
  if (!snapshot.ok()) {
    response->status = snapshot.status();
  } else {
    response->table_versions = snapshot.value().versions;
    auto cover = RunSession(flight->request, snapshot.value());
    if (cover.ok()) {
      response->status = Status::OK();
      response->cover = std::make_shared<const MappingTable>(
          std::move(cover).value());
      if (options_.cache_entries > 0) {
        cache_.Insert(flight->logical_key, snapshot.value().versions,
                      response->cover);
      }
    } else {
      response->status = cover.status();
    }
  }
  FinishFlight(flight, std::move(response));
}

void QueryService::FinishFlight(const std::shared_ptr<Flight>& flight,
                                std::shared_ptr<QueryResponse> response) {
  response->latency_us = ElapsedUs(flight->submitted_at);
  {
    MutexLock lock(mu_);
    in_flight_.erase(flight->flight_key);
    ++stats_.executed;
    if (!response->status.ok()) ++stats_.failed;
  }
  m_executed_->Add(1);
  if (!response->status.ok()) m_failed_->Add(1);
  m_latency_->Observe(response->latency_us);
  flight->promise.set_value(std::move(response));
}

void QueryService::Shutdown() {
  std::vector<std::shared_ptr<Flight>> orphaned;
  std::vector<std::thread> workers;
  {
    MutexLock lock(mu_);
    if (shutdown_) {
      // Idempotent: the queue is already drained; whatever threads are
      // still in workers_ (a racing first Shutdown may have claimed them
      // already) are joined below.
      orphaned.clear();
    } else {
      shutdown_ = true;
      orphaned.assign(queue_.begin(), queue_.end());
      queue_.clear();
      for (const auto& flight : orphaned) {
        in_flight_.erase(flight->flight_key);
      }
      m_queue_depth_->Set(0);
    }
    // Claim the pool under the lock: concurrent Shutdown() calls each
    // join a disjoint set of threads, never the same std::thread twice
    // (-Wthread-safety caught workers_ being joined outside mu_).
    workers.swap(workers_);
    work_cv_.NotifyAll();
  }
  for (const auto& flight : orphaned) {
    auto response = std::make_shared<QueryResponse>();
    response->status =
        Status::Unavailable("query service shut down before execution");
    response->latency_us = ElapsedUs(flight->submitted_at);
    {
      MutexLock lock(mu_);
      ++stats_.failed;
    }
    m_failed_->Add(1);
    flight->promise.set_value(std::move(response));
  }
  for (std::thread& worker : workers) {
    if (worker.joinable()) worker.join();
  }
}

QueryService::Stats QueryService::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace hyperion
