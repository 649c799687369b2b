// Typed messages exchanged by peers, each with its wire field list.
//
// The in-process transports hand these objects around; TcpNetwork and
// the shard write log carry them as wire bytes (wire.h).  Every payload
// struct names its wire fields once, in wire order, in a static
// `Fields(m, v)` that calls `v(field...)`.  The codec walks that list to
// write bytes, to read them back with bounds checks, and to count them:
// Message::ByteSize() is exactly the length of wire::EncodeMessage(),
// which every transport charges and reports as net.bytes_sent.
//
// A field encodes by its C++ type: integers and bools little-endian at
// their own width (int and int32_t as u32, size_t and uint64_t as u64,
// bool as u8); strings, vectors, sets and maps as a u32 count and their
// elements; nested structs by their own field list.  The adaptors below
// cover the few encodings that are not one member's own.  Adding a
// field or a message is a recipe in DESIGN.md ("Wire format").
//
// Message kinds:
//
//  * Ping/Pong       — Gnutella-style discovery flooding (discovery.h).
//  * SessionInit     — the information-gathering phase (§6.3.1): travels
//                      P1 → ... → P_{n-1} accumulating inferred-partition
//                      summaries (attribute sets only; no mappings move).
//  * ComputePlan     — the full inferred-partition plan, distributed by
//                      P_{n-1} to every participant when gathering ends.
//  * CoverBatch      — the computation phase (§6.3.2): a cache-sized batch
//                      of partial-cover mappings streamed toward P1.
//  * FinalRows       — per-partition cover rows delivered to the
//                      initiator by the partition's terminal peer.
//  * Ack             — reliability acknowledgement for one sequenced
//                      session message (reliable_link.h), or
//                      the answer to a Probe.
//  * Probe           — tail-loss probe: asks whether a channel's last
//                      unacked message arrived (reliable_link.h).
//  * Heartbeat       — cluster membership beacon (cluster/membership.h).
//  * Search /        — value search flooded along acquaintance edges,
//    SearchHit         translated through each hop's mapping tables.
//  * ShardFetch /    — coordinator ↔ storage shard transfer for the
//    ShardRows         cluster runtime (cluster/remote_tables.h).
//  * WriteSlice /    — curator writes and anti-entropy repair
//    WriteAck /        (cluster/write_path.h).
//    RepairFetch
//  * HandoffFetch /  — rebalance handoff of whole shards (cluster/node.h).
//    HandoffRows /
//    HandoffAck

#ifndef HYPERION_P2P_MESSAGE_H_
#define HYPERION_P2P_MESSAGE_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "core/mapping.h"
#include "core/query.h"
#include "core/value_filter.h"
#include "core/schema.h"

namespace hyperion {

using SessionId = uint64_t;

// Field-list adaptors, for the encodings that are not one member's own.
// Each states the fewest bytes its encoding takes (kMinBytes), which the
// decoder's count-versus-remaining-bytes check relies on.

/// \brief Wire adaptor: vectors `a` and `b` as one u32 count and then
/// interleaved (a[i], b[i]) pairs; a missing b[i] is sent as zero.
template <class A, class B>
struct Interleaved {
  static constexpr size_t kMinBytes = 4;
  A& a;
  B& b;
};
template <class A, class B>
Interleaved(A&, B&) -> Interleaved<A, B>;

/// \brief Wire adaptor: two count-prefixed vectors, row indices and the
/// rows they place; decoding rejects counts that disagree.
template <class I, class R>
struct Parallel {
  static constexpr size_t kMinBytes = 8;
  I& indices;
  R& rows;
};
template <class I, class R>
Parallel(I&, R&) -> Parallel<I, R>;

/// \brief Wire adaptor: an enum as its underlying integer; decoding
/// rejects values above `kMax`.  Spelled `AtMost<kMax>(field)`.
template <auto kMax, class E>
struct EnumAtMost {
  static constexpr size_t kMinBytes = sizeof(E);
  E& value;
};
template <auto kMax, class E>
EnumAtMost<kMax, E> AtMost(E& value) {
  return {value};
}

/// \brief Discovery ping, flooded along acquaintance edges with a TTL.
struct PingMsg {
  uint64_t ping_id = 0;
  std::string origin;
  int ttl = 0;
  int hops = 0;

  template <class M, class V>
  static void Fields(M& m, V& v) {
    v(m.ping_id, m.origin, m.ttl, m.hops);
  }
};

/// \brief Reply to a ping, routed back to the origin.
struct PongMsg {
  uint64_t ping_id = 0;
  std::string responder;
  int hops = 0;

  template <class M, class V>
  static void Fields(M& m, V& v) {
    v(m.ping_id, m.responder, m.hops);
  }
};

/// \brief One constraint belonging to a partition: where it lives and
/// which attributes it spans (attribute names are what downstream peers
/// need to plan their projections).
struct PartitionMemberRef {
  size_t hop = 0;  // hop h spans peers h -> h+1
  std::string table_name;
  std::vector<std::string> attr_names;  // X ∪ Y of the constraint

  template <class M, class V>
  static void Fields(M& m, V& v) {
    v(m.hop, m.table_name, m.attr_names);
  }
};

/// \brief Summary of one (inferred) partition: its member constraints and
/// the union of their attributes.  This is all the information the
/// gathering phase moves — never the mappings themselves.
struct PartitionSummary {
  std::vector<PartitionMemberRef> members;
  std::vector<std::string> attr_names;
  size_t first_hop = 0;
  size_t last_hop = 0;

  template <class M, class V>
  static void Fields(M& m, V& v) {
    v(m.members, m.attr_names, m.first_hop, m.last_hop);
  }
};

/// \brief Session parameters every control message carries.
struct SessionSpec {
  SessionId id = 0;
  std::vector<std::string> path_peers;  // P1 ... Pn
  std::vector<std::string> x_names;     // endpoints of the cover
  std::vector<std::string> y_names;
  size_t cache_capacity = 64;           // per-peer mapping cache
  // Compose limits every participant applies to its local joins (see
  // ComposeOptions); exceeding them fails the session loudly instead of
  // exhausting a peer's memory.
  size_t materialize_limit = 4096;
  size_t max_result_rows = 2'000'000;
  /// Semi-join prefiltering: the gathering phase additionally ships, per
  /// next-peer attribute, a Bloom filter of the values the sender's
  /// (already reduced) tables can produce there; the receiver drops rows
  /// that could never join before computing or streaming anything.
  bool semijoin_filters = false;
  /// Reliability parameters, carried in the spec so every participant
  /// retransmits on the same schedule the initiator chose.
  int64_t retransmit_timeout_us = 500'000;  // RTO ceiling (link_rtt.h)
  int max_retransmits = 5;                  // then the peer is unreachable

  template <class M, class V>
  static void Fields(M& m, V& v) {
    v(m.id, m.path_peers, m.x_names, m.y_names, m.cache_capacity,
      m.materialize_limit, m.max_result_rows, m.semijoin_filters,
      m.retransmit_timeout_us, m.max_retransmits);
  }
};

/// \brief Information-gathering message (forward pass).
struct SessionInitMsg {
  SessionSpec spec;
  std::vector<PartitionSummary> partitions;  // merged so far
  /// With spec.semijoin_filters: per receiving-peer attribute, the values
  /// the sender's hop tables can produce (see SessionSpec).
  std::map<std::string, ValueFilter> forward_filters;
  /// Reliability sequence number, 1-based per sender channel; 0 means
  /// "unsequenced" (delivered straight to the handler, no ack/dedup).
  uint64_t seq = 0;

  template <class M, class V>
  static void Fields(M& m, V& v) {
    v(m.spec, m.partitions, m.forward_filters, m.seq);
  }
};

/// \brief The final plan, sent to each participating peer.
struct ComputePlanMsg {
  SessionSpec spec;
  std::vector<PartitionSummary> partitions;
  uint64_t seq = 0;  // see SessionInitMsg::seq

  template <class M, class V>
  static void Fields(M& m, V& v) {
    v(m.spec, m.partitions, m.seq);
  }
};

/// \brief A streamed batch of partial-cover rows for one partition,
/// flowing from peer `from_hop+1`'s side toward P1.
struct CoverBatchMsg {
  SessionId session = 0;
  size_t partition = 0;  // index into the plan's partitions
  Schema schema;         // schema of `rows`
  std::vector<Mapping> rows;
  bool eos = false;      // no more batches for this partition
  uint64_t seq = 0;      // see SessionInitMsg::seq

  template <class M, class V>
  static void Fields(M& m, V& v) {
    v(m.session, m.partition, m.schema, m.rows, m.eos, m.seq);
  }
};

/// \brief Final per-partition cover rows, sent to the initiator.
struct FinalRowsMsg {
  SessionId session = 0;
  size_t partition = 0;
  Schema schema;
  std::vector<Mapping> rows;
  bool eos = false;
  bool satisfiable = true;  // meaningful on eos (middle-only partitions)
  std::string error;        // nonempty => the session failed at a peer
  int32_t error_code = 0;   // StatusCode of `error` (0 = unset => Internal)
  uint64_t seq = 0;         // see SessionInitMsg::seq

  template <class M, class V>
  static void Fields(M& m, V& v) {
    v(m.session, m.partition, m.schema, m.rows, m.eos, m.satisfiable,
      m.error, m.error_code, m.seq);
  }
};

/// \brief What an AckMsg answers: the arrival of a sequenced message, or
/// a ProbeMsg, with whether the receiver holds the probed seq.
enum class AckType : uint8_t {
  kArrival = 0,
  kProbeHeld = 1,
  kProbeMissing = 2,
};

/// \brief Acknowledges receipt of one sequenced session message, echoing
/// the (kind, partition, seq) channel coordinates so the sender can stop
/// retransmitting it.  `next_expected` is cumulative: every seq below it
/// has arrived, so one ack covers the ones lost before it, and a
/// `next_expected` below `seq` names the hole the receiver is waiting
/// on.  The answer to a ProbeMsg is an ack of type kProbeHeld or
/// kProbeMissing for the probed seq.  Acks themselves are unsequenced.
struct AckMsg {
  SessionId session = 0;
  uint8_t kind = 0;        // ReliableKind of the message being acked
  uint64_t partition = 0;  // 0 for kinds without a partition
  uint64_t seq = 0;
  uint64_t next_expected = 0;  // the channel's next in-order seq
  AckType type = AckType::kArrival;

  template <class M, class V>
  static void Fields(M& m, V& v) {
    v(m.session, m.kind, m.partition, m.seq, m.next_expected,
      AtMost<AckType::kProbeMissing>(m.type));
  }
};

/// \brief Tail-loss probe: asks the receiver of a channel whether it
/// holds `seq`, the sender's highest unacked seq on the channel.  It
/// carries no data, is unsequenced, and is answered from the receiver's
/// channel state (an AckMsg of type kProbeHeld or kProbeMissing).
struct ProbeMsg {
  SessionId session = 0;
  uint8_t kind = 0;
  uint64_t partition = 0;
  uint64_t seq = 0;

  template <class M, class V>
  static void Fields(M& m, V& v) {
    v(m.session, m.kind, m.partition, m.seq);
  }
};

/// \brief Gnutella-style value search (§1–§2): a selection query flooded
/// along acquaintance edges, with its keys TRANSLATED through each hop's
/// mapping tables before forwarding.
struct SearchMsg {
  uint64_t search_id = 0;
  std::string origin;
  int ttl = 0;
  SelectionQuery query;
  /// False when some translation along the way had an infinite image.
  bool complete = true;

  template <class M, class V>
  static void Fields(M& m, V& v) {
    v(m.search_id, m.origin, m.ttl, m.query.attrs, m.query.keys, m.complete);
  }
};

/// \brief Data tuples a peer found for a search, routed to the origin.
struct SearchHitMsg {
  uint64_t search_id = 0;
  std::string responder;
  Schema schema;
  std::vector<Tuple> tuples;
  /// Whether the chain of translations that produced the responder's
  /// query was exact (best effort: incomplete hit-less branches are not
  /// reported — flooding has no global termination detection).
  bool complete = true;

  template <class M, class V>
  static void Fields(M& m, V& v) {
    v(m.search_id, m.responder, m.schema, m.tuples, m.complete);
  }
};

/// \brief Cluster membership beacon (cluster/membership.h), sent by every
/// cluster node to every peer it knows an address for.  Carries the
/// sender's own listen address so receivers can learn addresses of nodes
/// that joined on ephemeral ports (the sender may know us before we know
/// it).  Unsequenced: a lost heartbeat is repaired by the next one.
struct HeartbeatMsg {
  std::string node;         // sender's cluster node id
  uint8_t role = 0;         // cluster::NodeRole as its enum value
  std::string listen_addr;  // sender's "host:port"
  uint64_t incarnation = 0; // bumped per process start
  uint64_t beat = 0;        // monotonic per incarnation
  /// Storage nodes piggyback the write version of every shard they
  /// replicate (cluster/write_path.h); parallel vectors, shards
  /// ascending.  Empty for coordinators and pre-write-path senders —
  /// anti-entropy treats an absent shard as "nothing to compare".
  std::vector<uint64_t> shards;
  std::vector<uint64_t> shard_versions;  // parallel to `shards`
  /// Live placement (cluster/placement.h): the sender's committed ring
  /// epoch and the storage roster that ring was built from.  Receivers
  /// adopt a strictly higher epoch by rebuilding the ring from
  /// `ring_nodes` (deterministic: the ring plants nodes sorted).  0 =
  /// pre-rebalance sender, nothing to adopt.
  uint64_t ring_epoch = 0;
  std::vector<std::string> ring_nodes;
  /// Mid-transition only (coordinator-announced): the epoch and roster
  /// the cluster is converging toward.  0/empty = no transition.
  uint64_t pending_epoch = 0;
  std::vector<std::string> pending_nodes;
  /// Address gossip: every roster member address the sender knows, as
  /// parallel vectors.  Storage siblings boot with unresolved (port 0)
  /// addresses for each other and cannot dial a peer they have never
  /// heard from; the coordinator knows everyone (config or StartJoin),
  /// so one beat fills the gaps.  Receivers only learn addresses for
  /// nodes they have no entry for — a node's own listen_addr remains
  /// authoritative for moves.
  std::vector<std::string> peer_nodes;
  std::vector<std::string> peer_addrs;  // parallel to `peer_nodes`

  template <class M, class V>
  static void Fields(M& m, V& v) {
    v(m.node, m.role, m.listen_addr, m.incarnation, m.beat,
      Interleaved{m.shards, m.shard_versions}, m.ring_epoch, m.ring_nodes,
      m.pending_epoch, m.pending_nodes, m.peer_nodes, m.peer_addrs);
  }
};

/// \brief Coordinator → storage: send me your slice of one table shard
/// (cluster/remote_tables.h).  Answered by exactly one ShardRowsMsg.
struct ShardFetchMsg {
  uint64_t request_id = 0;  // echoed by the response
  std::string table_name;
  uint64_t shard = 0;
  /// Ring epoch the sender resolved `shard`'s placement under.  A
  /// receiver whose committed epoch is higher rejects the fetch loudly
  /// (`cluster.epoch.stale`) so the sender re-resolves instead of
  /// reading a slice the receiver may have dropped.  0 = unstamped
  /// (pre-rebalance sender), always accepted.
  uint64_t ring_epoch = 0;

  template <class M, class V>
  static void Fields(M& m, V& v) {
    v(m.request_id, m.table_name, m.shard, m.ring_epoch);
  }
};

/// \brief Storage → coordinator: one shard slice of one table, or a loud
/// error.  Rows carry their original row indices so the coordinator can
/// reassemble the source table in its exact row order
/// (storage/shard_split.h).
struct ShardRowsMsg {
  uint64_t request_id = 0;
  std::string table_name;
  std::string node;          // responder's cluster node id
  uint64_t shard = 0;
  uint64_t version = 0;      // TableStore version the slice was cut at
  uint64_t total_rows = 0;   // full source table's row count
  Schema x_schema;
  Schema y_schema;
  std::vector<uint64_t> row_indices;  // original positions, ascending
  std::vector<Mapping> rows;          // parallel to row_indices
  std::string error;         // nonempty => the fetch failed at the node
  int32_t error_code = 0;    // StatusCode of `error` (0 = unset)
  uint64_t ring_epoch = 0;   // responder's committed ring epoch

  template <class M, class V>
  static void Fields(M& m, V& v) {
    v(m.request_id, m.table_name, m.node, m.shard, m.version, m.total_rows,
      m.x_schema, m.y_schema, Parallel{m.row_indices, m.rows}, m.error,
      m.error_code, m.ring_epoch);
  }
};

/// \brief Coordinator → storage: apply one shard slice of one curator
/// write (cluster/write_path.h).  `shard_version` is the per-shard write
/// sequence number: the receiver applies the slice iff its current
/// version is at least `committed_floor` (every sequence in between was
/// burned by a failed write, and a slice is full shard state, so the
/// jump loses nothing), acks-without-applying duplicates (≤ current),
/// and rejects gaps below the floor as stale so anti-entropy can fill
/// them.  Also the reply to a RepairFetchMsg (with `repair` set);
/// `error` is nonempty when a repair source cannot serve an entry.
struct WriteSliceMsg {
  uint64_t request_id = 0;   // echoed by the WriteAckMsg / repair reply
  std::string origin;        // sender's cluster node id
  std::string table_name;
  uint64_t shard = 0;
  uint64_t shard_version = 0;  // per-shard write sequence this slice is
  // Last sequence the coordinator committed before this write: every
  // sequence in (committed_floor, shard_version) was burned by a failed
  // write, so a replica at or past the floor may apply across the gap.
  uint64_t committed_floor = 0;
  uint64_t table_version = 0;  // coordinator TableStore version to adopt
  uint64_t total_rows = 0;     // full post-write table's row count
  Schema x_schema;
  Schema y_schema;
  std::vector<uint64_t> row_indices;  // original positions, ascending
  std::vector<Mapping> rows;          // parallel to row_indices
  uint8_t repair = 0;        // 1 => reply to a RepairFetchMsg
  std::string error;         // repair replies only: fetch failed loudly
  int32_t error_code = 0;    // StatusCode of `error` (0 = unset)
  /// Ring epoch the write was fanned out under (0 = unstamped/repair).
  /// Purely diagnostic on the write path today: the coordinator's epoch
  /// is never behind a replica's, so the stale gate exists as a loud
  /// guardrail against reordered or replayed traffic.
  uint64_t ring_epoch = 0;

  template <class M, class V>
  static void Fields(M& m, V& v) {
    v(m.request_id, m.origin, m.table_name, m.shard, m.shard_version,
      m.committed_floor, m.table_version, m.total_rows, m.x_schema,
      m.y_schema, Parallel{m.row_indices, m.rows}, m.repair, m.error,
      m.error_code, m.ring_epoch);
  }
};

/// \brief Storage → coordinator: outcome of applying one WriteSliceMsg.
/// `shard_version` reports the replica's current version after the
/// attempt, so a coordinator can tell a duplicate (acked, version
/// already ≥) from a stale replica (version behind, `applied` = 0).
struct WriteAckMsg {
  uint64_t request_id = 0;
  std::string node;          // responder's cluster node id
  uint64_t shard = 0;
  uint8_t applied = 0;       // 1 => slice applied or was a duplicate
  uint64_t shard_version = 0;  // replica's version after the attempt
  std::string error;         // nonempty => the apply failed at the node
  int32_t error_code = 0;    // StatusCode of `error` (0 = unset)
  uint64_t ring_epoch = 0;   // responder's committed ring epoch

  template <class M, class V>
  static void Fields(M& m, V& v) {
    v(m.request_id, m.node, m.shard, m.applied, m.shard_version, m.error,
      m.error_code, m.ring_epoch);
  }
};

/// \brief Storage → storage: anti-entropy pull.  "Your heartbeat says
/// your `shard` is at a newer version than my `from_version`; send me
/// write-log entry `from_version` + 1."  Answered by one WriteSliceMsg
/// with `repair` set (or with `error` if the entry is gone).
struct RepairFetchMsg {
  uint64_t request_id = 0;
  std::string node;          // requester's cluster node id
  uint64_t shard = 0;
  uint64_t from_version = 0;  // requester's current shard version

  template <class M, class V>
  static void Fields(M& m, V& v) {
    v(m.request_id, m.node, m.shard, m.from_version);
  }
};

/// \brief Storage → storage: rebalance handoff pull (cluster/node.h).
/// "The pending epoch makes me an owner of `shard`; send me your full
/// served state for it."  Sent by a new owner to one committed owner,
/// answered by exactly one HandoffRowsMsg.  Unlike anti-entropy (one
/// write-log entry per exchange), a handoff ships the whole shard in one
/// reply: the puller may own nothing yet, and the transition cannot
/// commit until it has everything.
struct HandoffFetchMsg {
  uint64_t request_id = 0;   // echoed by the HandoffRowsMsg
  std::string node;          // requester's cluster node id
  uint64_t shard = 0;
  /// The pending epoch being converged.  A receiver that knows a higher
  /// committed epoch rejects the pull (`cluster.epoch.stale`) — the
  /// transition it belonged to is already over.
  uint64_t ring_epoch = 0;

  template <class M, class V>
  static void Fields(M& m, V& v) {
    v(m.request_id, m.node, m.shard, m.ring_epoch);
  }
};

/// \brief Storage → storage: full-shard handoff snapshot, or a loud
/// error.  `slices` holds one WriteSliceMsg per table the responder
/// serves on `shard` (its live served state, not raw log entries);
/// `shard_version` is the responder's write-log version for the shard,
/// which the receiver installs as its version floor so later writes and
/// anti-entropy chain correctly from it.
struct HandoffRowsMsg {
  uint64_t request_id = 0;
  std::string node;          // responder's cluster node id
  uint64_t shard = 0;
  uint64_t shard_version = 0;  // responder's write-log shard version
  std::vector<WriteSliceMsg> slices;  // one per served table on `shard`
  std::string error;         // nonempty => the handoff failed at the node
  int32_t error_code = 0;    // StatusCode of `error` (0 = unset)

  template <class M, class V>
  static void Fields(M& m, V& v) {
    v(m.request_id, m.node, m.shard, m.shard_version, m.slices, m.error,
      m.error_code);
  }
};

/// \brief Storage → coordinator: one gained shard is caught up.  The
/// coordinator commits the pending epoch only once every (shard, new
/// owner) pair of the transition's diff has acked it.
struct HandoffAckMsg {
  uint64_t request_id = 0;   // the HandoffFetchMsg id that completed
  std::string node;          // the new owner acking
  uint64_t shard = 0;
  uint64_t shard_version = 0;  // version floor the owner installed
  uint64_t rows = 0;         // mapping rows shipped (rows_shipped metric)
  uint64_t ring_epoch = 0;   // the pending epoch being acked

  template <class M, class V>
  static void Fields(M& m, V& v) {
    v(m.request_id, m.node, m.shard, m.shard_version, m.rows, m.ring_epoch);
  }
};

/// \brief Envelope delivered by the network.  The payload's index in
/// the variant is its wire tag, so alternatives are only ever appended.
struct Message {
  std::string from;
  std::string to;
  std::variant<PingMsg, PongMsg, SessionInitMsg, ComputePlanMsg,
               CoverBatchMsg, FinalRowsMsg, SearchMsg, SearchHitMsg, AckMsg,
               HeartbeatMsg, ShardFetchMsg, ShardRowsMsg, WriteSliceMsg,
               WriteAckMsg, RepairFetchMsg, HandoffFetchMsg, HandoffRowsMsg,
               HandoffAckMsg, ProbeMsg>
      payload;

  /// Payload type names, by variant index (metrics label them "type").
  static constexpr const char* kTypeNames[] = {
      "Ping",        "Pong",        "SessionInit", "ComputePlan",
      "CoverBatch",  "FinalRows",   "Search",      "SearchHit",
      "Ack",         "Heartbeat",   "ShardFetch",  "ShardRows",
      "WriteSlice",  "WriteAck",    "RepairFetch", "HandoffFetch",
      "HandoffRows", "HandoffAck",  "Probe"};
  static_assert(std::size(kTypeNames) ==
                std::variant_size_v<decltype(payload)>);

  /// \brief Exact wire size in bytes: envelope and payload, the length
  /// of wire::EncodeMessage(*this).  Defined with the codec (wire.cc).
  size_t ByteSize() const;
  const char* TypeName() const { return kTypeNames[payload.index()]; }
};

}  // namespace hyperion

#endif  // HYPERION_P2P_MESSAGE_H_
