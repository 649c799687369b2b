// QueryService: the long-lived query-answering front end over a peer
// network — the piece the paper's experiments drove by hand, turned into
// a service that absorbs heavy concurrent traffic.
//
// A request names a peer path and an endpoint projection; the service
// executes the distributed cover protocol (peer.h) for it on a bounded
// worker pool.  Three mechanisms keep a hot workload cheap and an
// overloaded one loud:
//
//  * Admission control — at most `queue_capacity` requests may wait for a
//    worker; beyond that Submit fails fast with kResourceExhausted
//    instead of building unbounded backlog.  Each admitted request runs
//    under the initiator-side session deadline (PR 2's machinery,
//    SessionOptions::session_deadline_us), so a partitioned network
//    yields DeadlineExceeded, never a hang.
//  * Versioned cover cache — completed covers are cached keyed by (path,
//    constraint set, endpoint projection) with the TableStore version of
//    every participating table; a curator write moves a version and the
//    stale entry is invalidated at the next lookup (cover_cache.h).
//  * Request coalescing — identical requests (same logical key AND same
//    table versions) arriving while one is already queued or running
//    attach to that flight and share its result: a hot query costs one
//    protocol run no matter how many callers pile onto it.
//
// Each execution builds its session's peers fresh from the TableStore
// snapshot (constraints are shared_ptr handles onto immutable tables, so
// this is cheap) and runs them on a network no other session uses while
// it runs; workers therefore never share protocol state, and the
// service is safe to drive from any number of client threads.  Sessions
// share three things.  One is the service's table of per-link round-trip
// estimates (p2p/link_rtt.h): every session's peers read and refine it,
// so retransmit timeouts track the links from the first message on
// instead of restarting from the configured timeout.  Another is its
// store of join indexes (p2p/join_index_store.h): a peer joins streamed
// batches with a member table read in place, through an index built once
// per table version rather than once per session.  The third, on the
// tcp transport, is a pool of running networks: a session takes an idle
// one and hands it back at quiescence, so sockets and the loop thread
// outlive it.
//
// Metrics (service.*) flow into the default registry; see
// docs/METRICS.md.

#ifndef HYPERION_SERVICE_QUERY_SERVICE_H_
#define HYPERION_SERVICE_QUERY_SERVICE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/synchronization.h"
#include "core/schema.h"
#include "p2p/join_index_store.h"
#include "p2p/link_rtt.h"
#include "p2p/network.h"
#include "p2p/protocol.h"
#include "service/cover_cache.h"
#include "storage/table_store.h"

namespace hyperion {

class TcpNetwork;

namespace obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace obs

/// \brief One peer of the served network: its identity, attributes, and
/// which TableStore tables it holds toward each acquaintance.
struct PeerSpec {
  std::string id;
  AttributeSet attributes;
  /// neighbor id -> names of the tables (in the TableStore) forming this
  /// peer's constraints toward that neighbor.
  std::map<std::string, std::vector<std::string>> tables_to;
};

/// \brief A cover/translation request against the served network.
struct QueryRequest {
  std::vector<std::string> path_peers;  // P1 ... Pn, initiator first
  std::vector<Attribute> x_attrs;       // within P1's attributes
  std::vector<Attribute> y_attrs;       // target attributes at Pn
  /// Per-session tuning, including the per-request deadline
  /// (session_deadline_us) and reliability schedule.
  SessionOptions options;
};

/// \brief Outcome of one request.  `status` is always meaningful: OK with
/// a cover, or a loud error (Unavailable / DeadlineExceeded /
/// ResourceExhausted / ...) — never a silently wrong result.
struct QueryResponse {
  Status status;
  /// The cover (null when status is non-OK).  Shared and immutable:
  /// cache hits and coalesced requests all point at the same table.
  std::shared_ptr<const MappingTable> cover;
  bool from_cache = false;
  int64_t latency_us = 0;  // wall time, submit -> response ready
  /// TableStore versions of the participating tables the result was
  /// computed (or served) at.
  TableVersions table_versions;
};

using QueryResponsePtr = std::shared_ptr<const QueryResponse>;
using QueryFuture = std::shared_future<QueryResponsePtr>;

/// \brief Which Network implementation session executions run on.
enum class ServiceTransport {
  kSim,  // single-threaded discrete-event simulation (default)
  kTcp,  // real loopback TCP sockets (tcp_network.h)
};

/// \brief Parses "sim" / "tcp"; InvalidArgument otherwise.
Result<ServiceTransport> ParseServiceTransport(const std::string& name);

/// \brief Stable name for a transport ("sim" / "tcp").
const char* ServiceTransportName(ServiceTransport transport);

struct QueryServiceOptions {
  /// Worker threads executing sessions.  0 = no threads are spawned and
  /// queued flights run only via RunQueuedOnce() — deterministic mode for
  /// tests and single-threaded embeddings.
  size_t num_workers = 4;
  /// Admitted-but-not-yet-running requests allowed before Submit fails
  /// with kResourceExhausted.
  size_t queue_capacity = 64;
  /// Cover-cache entries; 0 disables caching.
  size_t cache_entries = 1024;
  /// Faults injected into every session's network (seeded,
  /// deterministic per session; times relative to session start).
  FaultPlan fault_plan;
  /// Latency/bandwidth model for the sessions' simulated networks
  /// (transport == kSim only).
  SimNetwork::Options net_options;
  /// Transport each session's network uses.  Each sim session gets a
  /// fresh network.  kTcp sessions reuse running networks, one per
  /// concurrently running session, whose loopback listeners (one per
  /// peer ever on a path), loop threads and connections live as long as
  /// the service.
  ServiceTransport transport = ServiceTransport::kSim;
};

/// \brief Concurrent query front end.  Thread-safe; one instance serves
/// any number of client threads.
class QueryService {
 public:
  /// \brief Serves `peers` over the tables of `source` — a local
  /// TableStore or a cluster-backed source (cluster/remote_tables.h);
  /// both must outlive the service.  A TableStore source may be
  /// concurrently mutated by a curator (the versioned cache keeps served
  /// results consistent with it).
  QueryService(const TableSource* source, std::vector<PeerSpec> peers,
               QueryServiceOptions options = {});
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// \brief Admits the request and returns a future for its response.
  /// Fails fast (without queueing) with kResourceExhausted when the
  /// admission queue is full, kInvalidArgument/kNotFound for malformed
  /// requests, or kUnavailable after Shutdown.
  Result<QueryFuture> Submit(QueryRequest request);

  /// \brief Blocking convenience: Submit + wait.  Admission failures
  /// come back as a response carrying the same loud status.
  QueryResponsePtr Execute(QueryRequest request);

  /// \brief Executes one queued flight on the calling thread; returns
  /// false when the queue was empty.  Only meaningful with
  /// num_workers == 0 (workers race for the queue otherwise).
  bool RunQueuedOnce();

  /// \brief Stops accepting requests, fails all queued-but-unstarted
  /// flights with kUnavailable, and joins the workers.  Idempotent;
  /// the destructor calls it.
  void Shutdown();

  struct Stats {
    uint64_t submitted = 0;       // Submit calls, admitted or not
    uint64_t admission_rejects = 0;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;    // admitted to execution
    uint64_t coalesced = 0;       // attached to an in-flight twin
    uint64_t executed = 0;        // protocol sessions actually run
    uint64_t failed = 0;          // responses with non-OK status
  };
  Stats stats() const;
  CoverCache::Stats cache_stats() const { return cache_.stats(); }

 private:
  struct Flight {
    QueryRequest request;
    std::string logical_key;
    std::string flight_key;  // logical key + version vector
    TableVersions versions;
    std::promise<QueryResponsePtr> promise;
    QueryFuture future;
    std::chrono::steady_clock::time_point submitted_at;
  };

  // Participating tables of `request`, hop by hop, resolved against the
  // specs and the store.  Fails loudly when a peer or table is missing.
  struct PathSnapshot {
    std::vector<const PeerSpec*> specs;           // one per path peer
    std::vector<std::vector<VersionedTable>> hop_tables;
    std::vector<std::vector<std::string>> hop_table_names;
    TableVersions versions;
  };
  Result<PathSnapshot> Snapshot(const QueryRequest& request) const;

  static std::string LogicalKey(const QueryRequest& request,
                                const PathSnapshot& snapshot);
  static std::string FlightKey(const std::string& logical_key,
                               const TableVersions& versions);

  // Runs the cover session for `flight` on the calling thread and
  // resolves its promise (never throws the promise away).
  void ExecuteFlight(const std::shared_ptr<Flight>& flight);
  // The protocol run itself: fresh peers and one session, on a fresh sim
  // network or a pooled tcp one.  The session ends at every path peer
  // when its initiator finishes (PeerNode::EndSession), so the run
  // returns once the frames in flight are handled.
  Result<MappingTable> RunSession(const QueryRequest& request,
                                  const PathSnapshot& snapshot);
  void WorkerLoop();
  void FinishFlight(const std::shared_ptr<Flight>& flight,
                    std::shared_ptr<QueryResponse> response);

  const TableSource* source_;
  std::map<std::string, PeerSpec> specs_;
  QueryServiceOptions options_;
  CoverCache cache_;
  // Round-trip estimates shared by the peers of every session (internally
  // locked; a leaf like the cache's mutex).
  std::shared_ptr<LinkRttTable> link_rtt_ = std::make_shared<LinkRttTable>();
  // Join indexes over member tables, shared by the peers of every session
  // (internally locked; a leaf too).  One per (table, probe schema), so
  // its size is bounded by the catalog (join_index_store.h).
  std::shared_ptr<JoinIndexStore> join_indexes_ =
      std::make_shared<JoinIndexStore>();

  // Lock hierarchy (DESIGN.md §12): mu_ is a leaf — no code path holds
  // it while acquiring the cache's, the store's, or a transport's mutex.
  mutable Mutex mu_;
  CondVar work_cv_;
  std::deque<std::shared_ptr<Flight>> queue_ GUARDED_BY(mu_);
  std::map<std::string, std::shared_ptr<Flight>> in_flight_
      GUARDED_BY(mu_);  // by flight_key
  bool shutdown_ GUARDED_BY(mu_) = false;
  Stats stats_ GUARDED_BY(mu_);
  // Guarded so concurrent Shutdown() calls cannot both join the same
  // std::thread: the first caller swaps the pool out under mu_ and joins
  // its private copy.
  std::vector<std::thread> workers_ GUARDED_BY(mu_);
  // Idle, running tcp networks (transport == kTcp): RunSession takes one,
  // or starts a new one when none is idle, and returns it at quiescence
  // with its handlers detached.  Destroying them with the service joins
  // their loop threads and closes their listeners.
  std::vector<std::unique_ptr<TcpNetwork>> idle_tcp_ GUARDED_BY(mu_);

  // service.* instruments (default registry), fetched once.
  obs::Counter* m_requests_ = nullptr;
  obs::Counter* m_rejects_ = nullptr;
  obs::Counter* m_cache_hits_ = nullptr;
  obs::Counter* m_cache_misses_ = nullptr;
  obs::Counter* m_coalesced_ = nullptr;
  obs::Counter* m_executed_ = nullptr;
  obs::Counter* m_failed_ = nullptr;
  obs::Gauge* m_queue_depth_ = nullptr;
  obs::Histogram* m_latency_ = nullptr;
};

}  // namespace hyperion

#endif  // HYPERION_SERVICE_QUERY_SERVICE_H_
