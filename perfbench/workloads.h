// The benchmark workloads and the probes they share.  Why each
// workload exists, and what it bypasses, is in NOTES.md.

#ifndef HYPERION_PERFBENCH_WORKLOADS_H_
#define HYPERION_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "cluster/shard_ring.h"
#include "core/mapping_table.h"
#include "service/query_service.h"
#include "storage/table_source.h"

namespace perfbench {

// Bio catalog size every workload builds (the bench's "about 1500
// entities").
inline constexpr size_t kEntities = 1500;
// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 5;

Outcome RunCoverWorkload(const Args& args, bool loss);
Outcome RunClusterWorkload(const Args& args, bool churn);

// --- shared helpers (layers.cc) ---------------------------------------------

hyperion::QueryRequest PathRequest(const std::vector<std::string>& dbs);
std::string PathName(const std::vector<std::string>& dbs);

// Names of the tables the path's hops read, in hop order.
std::vector<std::string> PathTables(
    const std::vector<hyperion::PeerSpec>& peers,
    const std::vector<std::string>& dbs);

// The seeded order one client walks the seven Hugo->MIM paths in.
std::vector<size_t> SeededPathOrder(uint64_t seed, size_t n_paths);

// `table` plus the one ground row (x_value..., y_value...) — the curator
// write the coordinator REPL's `write` verb performs.
hyperion::MappingTable WithRow(const hyperion::MappingTable& table,
                               const std::string& tag);

// The values, space-separated, for the context line.
std::string Joined(const std::vector<double>& values);

// Max RSS of this process plus that of its largest reaped child
// (RUSAGE_SELF + RUSAGE_CHILDREN), in MiB.
double PeakRssMb();

// A fixed set of tables: the tables one op read, captured at op time.
class SnapshotSource : public hyperion::TableSource {
 public:
  // Fetches the path's tables from `source` now.
  SnapshotSource(const hyperion::TableSource& source,
                 const std::vector<hyperion::PeerSpec>& peers,
                 const std::vector<std::string>& dbs);
  hyperion::Result<hyperion::VersionedTable> Fetch(
      const std::string& name) const override;

 private:
  std::map<std::string, hyperion::VersionedTable> tables_;
};

// What a traced op leaves for the layer probes.  The probes run after the
// timed phase: run between ops, their allocations and CPU time slowed
// the op that followed and made traced ops look faster than untraced
// ones.
struct ProbeJob {
  uint64_t op = 0;
  size_t path = 0;                                      // queries
  std::shared_ptr<const hyperion::MappingTable> cover;  // queries
  std::shared_ptr<const SnapshotSource> tables;         // queries
  double latency_ms = 0;                                // queries
  bool miss = false;                                    // queries
  std::shared_ptr<const hyperion::MappingTable> written;  // writes
  uint64_t version = 0;                                   // writes
};

// The service.* and core.* per-layer metrics: Submit self time and
// ComputePartitionCovers time/rows from the spans, the cache hit ratio
// and sessions per request from the service.* counter deltas.
void AddServiceCoreMetrics(const std::vector<Span>& spans,
                           const std::vector<int64_t>& self_ns,
                           const CounterDelta& counters, Outcome* out);

// The p2p.* per-layer metrics read from counters: messages and bytes per
// executed session on `network` (net.* deltas between the snapshots),
// retransmits, suppressed duplicates, the share of first sends, and
// session timeouts.
void AddP2pCounterMetrics(const hyperion::obs::MetricsSnapshot& net_before,
                          const hyperion::obs::MetricsSnapshot& net_after,
                          const std::string& network,
                          const CounterDelta& counters, Outcome* out);

// Per-layer work measured for traced ops by calling the layers' public
// functions directly, each inside its own span.
struct LayerProbe {
  double encode_ns = 0, decode_ns = 0, wire_rows = 0, wire_bytes = 0;

  // CoverEngine::ComputePartitionCovers over the path's tables read from
  // `source`; returns its wall ms (span core.ComputePartitionCovers, arg
  // = cover rows).
  double Cover(const hyperion::TableSource& source,
               const std::vector<hyperion::PeerSpec>& peers,
               const std::vector<std::string>& dbs);
  // wire::EncodeMessage/DecodeMessage of a CoverBatchMsg carrying the
  // cover's rows.
  void WireCover(const hyperion::MappingTable& cover);
  // SliceTable of `table` by `ring`, AssembleTable of the slices, and the
  // wire round trip of each slice as a ShardRowsMsg.
  void Shards(const hyperion::MappingTable& table, uint64_t version,
              const hyperion::cluster::ShardRing& ring, uint64_t shard_count);

  void AddWireMetrics(Outcome* out) const;
};

}  // namespace perfbench

#endif  // HYPERION_PERFBENCH_WORKLOADS_H_
