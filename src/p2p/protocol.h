// Session-level types for the distributed cover protocol (paper §6.3).
//
// A cover session runs in two phases:
//
// 1. Information gathering — the initiator P1 computes the partitions of
//    its hop constraints and forwards their attribute-set summaries; each
//    peer merges the incoming summaries with its own partitions (inferred
//    partitions) and forwards.  Only attribute sets move, never mappings.
//    The penultimate peer, which sees the final merge, distributes the
//    resulting plan to every participant.
//
// 2. Computation — per inferred partition, the peer owning the
//    partition's last hop joins its local tables and streams the rows in
//    cache-sized batches toward P1; each intermediate peer joins incoming
//    batches with its own tables, projects onto what is still needed, and
//    streams on.  The partition's first peer projects onto the endpoint
//    attributes and delivers final rows to the initiator, which
//    recombines partitions into the full cover
//    (CoverEngine::CombinePartitionCovers).

#ifndef HYPERION_P2P_PROTOCOL_H_
#define HYPERION_P2P_PROTOCOL_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/status.h"
#include "core/compose.h"
#include "core/cover_engine.h"
#include "core/mapping_table.h"

namespace hyperion {

/// \brief Per-session tuning.
struct SessionOptions {
  /// Per-peer mapping cache: a peer streams a batch whenever this many
  /// result mappings have accumulated (paper §7's cache-size knob).
  size_t cache_capacity = 64;
  /// Options for the local join/projection steps.
  ComposeOptions compose;
  /// Semi-join prefiltering: gathering-phase messages carry Bloom-filter
  /// summaries of producible values so downstream peers drop rows that
  /// can never join before computing or streaming (sound: false positives
  /// only keep extra rows, and the join itself stays exact).
  bool semijoin_filters = false;
  /// Whether the initiator materializes the full cover (the Cartesian
  /// product of the per-partition covers, §6.3.2's final step).  Disable
  /// for workloads with several large partitions — the product explodes
  /// combinatorially and consumers usually want the per-partition covers
  /// anyway (the paper's B2B experiment reports those).
  bool combine_partitions = true;
  /// Reliability: ack timeout for sequenced session messages before a
  /// link has a round-trip sample, and the ceiling of the adaptive
  /// timeout afterwards (p2p/link_rtt.h); doubles on every
  /// retransmission.  Carried in the SessionSpec so every participant
  /// uses the ceiling the initiator chose.
  int64_t retransmit_timeout_us = 500'000;
  /// Retransmissions after the first attempt before the destination is
  /// declared unreachable and the session fails with its name.
  int max_retransmits = 5;
  /// Initiator-side deadline: if the session has not completed after this
  /// much network time, it fails with DeadlineExceeded naming the
  /// partitions (and their terminal peers) still outstanding.  0 disables.
  int64_t session_deadline_us = 120'000'000;
};

/// \brief Timing/traffic outcomes of a session, in virtual microseconds.
struct SessionStats {
  int64_t start_us = 0;
  int64_t first_row_us = -1;   // first cover row reaching the initiator
  int64_t complete_us = -1;    // last row (cover fully assembled)
  std::map<size_t, int64_t> partition_first_row_us;
  std::map<size_t, int64_t> partition_complete_us;
  size_t rows_received = 0;    // per-partition rows seen by the initiator
};

/// \brief Final state of a cover session at the initiator.
struct SessionResult {
  bool done = false;
  Status error;  // non-OK when the session failed
  MappingTable cover;
  /// Per-partition covers in plan order (keep attributes only).
  std::vector<FreeTable> partition_covers;
  std::vector<std::vector<std::string>> partition_keep_names;
  std::vector<bool> partition_satisfiable;
  SessionStats stats;
};

}  // namespace hyperion

#endif  // HYPERION_P2P_PROTOCOL_H_
