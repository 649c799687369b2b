// PeerNode: one autonomous peer — its attributes, its mapping tables to
// acquainted peers, and its side of the distributed cover protocol.
//
// Mirrors the paper's implementation sketch (§6.1/§7): each peer has a
// storage module (constraint store + mapping cache) and a networking
// module (message handling over the Gnutella-like substrate).  A peer
// only ever stores constraints between itself and its immediate
// acquaintances; covers across longer paths emerge from the protocol.

#ifndef HYPERION_P2P_PEER_H_
#define HYPERION_P2P_PEER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/compose.h"
#include "core/constraint.h"
#include "core/cover_engine.h"
#include "core/schema.h"
#include "p2p/join_index_store.h"
#include "p2p/link_rtt.h"
#include "p2p/message.h"
#include "p2p/network_interface.h"
#include "p2p/protocol.h"
#include "p2p/reliable_link.h"
#include "storage/mapping_cache.h"

namespace hyperion {

/// \brief A peer in the network.  Not thread-safe: every transport runs a
/// peer's handlers and timers one at a time.
class PeerNode {
 public:
  /// `link_rtt` holds the round-trip estimates behind the adaptive
  /// retransmit timeouts (link_rtt.h); pass one shared table to let
  /// estimates outlive this peer.  `join_indexes` holds the join indexes
  /// over member tables (join_index_store.h); pass one shared store to
  /// let them outlive this peer.  Null gives the peer a private one.
  PeerNode(std::string id, AttributeSet attributes,
           std::shared_ptr<LinkRttTable> link_rtt = nullptr,
           std::shared_ptr<JoinIndexStore> join_indexes = nullptr);

  const std::string& id() const { return id_; }
  const AttributeSet& attributes() const { return attributes_; }

  /// \brief Registers this peer's handler with `network` (either
  /// transport: SimNetwork or TcpNetwork).  The network must outlive the
  /// peer's use.
  Status Attach(Network* network);

  /// \brief Stores a mapping table from this peer to `neighbor` as a
  /// constraint (X must be within this peer's attributes).  The table
  /// must be named, uniquely per neighbor.
  Status AddConstraintTo(const std::string& neighbor, MappingConstraint c);

  /// \brief Constraints stored toward `neighbor` (empty when none).
  const std::vector<MappingConstraint>& ConstraintsTo(
      const std::string& neighbor) const;

  /// \brief Acquainted peer ids (those this peer holds tables toward).
  std::vector<std::string> Acquaintances() const;

  /// \brief Peers that answered a discovery ping within `ttl` hops, with
  /// their hop distance.  Must be called before network.Run(); results
  /// are available afterwards via Ponged().
  Status FloodPing(int ttl);
  const std::map<std::string, int>& Ponged() const { return ponged_; }

  /// \brief Stores a local data relation; value searches evaluate against
  /// every stored relation whose schema contains the query attributes.
  Status AddData(Relation relation);
  const std::vector<Relation>& data() const { return data_; }

  /// \brief Result of a value search started at this peer.
  struct SearchState {
    SelectionQuery query;
    /// Hits by responder (merged, deduplicated per responder).
    std::map<std::string, Relation> hits;
    /// Whether every translation along every explored path was exact.
    bool complete = true;
    int64_t first_hit_us = -1;  // virtual time of the first hit
  };

  /// \brief Starts a Gnutella-style value search (§1–§2): the query is
  /// evaluated locally, then flooded to acquaintances with its keys
  /// translated through the stored mapping tables at every hop.  Returns
  /// the search id; run the network, then read Search(id).
  Result<uint64_t> StartValueSearch(SelectionQuery query, int ttl);

  Result<const SearchState*> Search(uint64_t search_id) const;

  /// \brief Starts a cover session along `path_peers` (this peer first).
  /// `x_attrs` must be within this peer's attributes; `y_attrs` are the
  /// target attributes in the last peer.  Returns the session id; drive
  /// the network to completion, then fetch with GetResult().
  Result<SessionId> StartCoverSession(std::vector<std::string> path_peers,
                                      std::vector<Attribute> x_attrs,
                                      std::vector<Attribute> y_attrs,
                                      const SessionOptions& opts = {});

  /// \brief Result of a completed session started at this peer.
  Result<const SessionResult*> GetResult(SessionId session) const;

  /// \brief Moves the result of a session started at this peer out,
  /// and forgets the session: later messages for it are ignored, and
  /// GetResult no longer finds it.  Call it once the session is done and
  /// the network is quiet.
  Result<SessionResult> TakeResult(SessionId session);

  /// \brief Called, on this peer's timeline, when a session started here
  /// finishes, whether it succeeded or failed.  The cover is complete at
  /// that point, so the caller may end the session at every path peer
  /// (EndSession) instead of waiting for their retransmit timers.
  void SetSessionDoneCallback(std::function<void(SessionId)> done) {
    session_done_ = std::move(done);
  }

  /// \brief Ends `session` here (ReliableLink::EndSession): its timers
  /// are cancelled and this peer sends nothing more for it.  Run it on
  /// this peer's timeline (a zero-delay ScheduleTimer), never from
  /// another peer's handler.
  void EndSession(SessionId session);

  /// \brief Message entry point (wired by Attach).
  void HandleMessage(const Message& msg);

 private:
  // Protocol handlers for a message the reliability layer delivers in
  // channel order (or at once, when unsequenced).
  void Dispatch(const Message& msg);

  // ---- information-gathering phase ----
  void OnSessionInit(const Message& msg);
  // Merges upstream partition summaries with this peer's own hop
  // partitions; `hop` is this peer's hop index.
  std::vector<PartitionSummary> MergeSummaries(
      const std::vector<PartitionSummary>& upstream, size_t hop,
      const std::vector<MappingConstraint>& own);
  void DistributePlan(const SessionSpec& spec,
                      std::vector<PartitionSummary> partitions);

  // ---- computation phase ----
  struct PartState {
    bool involved = false;     // this peer owns members of the partition
    bool is_starter = false;   // my hop == partition's last hop
    bool is_terminal = false;  // my hop == partition's first hop
    std::vector<std::string> keep_names;    // endpoint attrs kept
    std::vector<std::string> needed_names;  // what downstream-of-me needs
    // Join of my member tables.  One member with no semijoin filter is
    // read in place: `local` shares ownership of the constraint's
    // immutable table and `local_table` names it.  Otherwise `local` is
    // this session's own table and `local_table` is empty.
    std::shared_ptr<const FreeTable> local;
    std::string local_table;
    // Index over `local`, fetched from join_indexes_ on the first
    // non-empty batch that shares attributes with it (kept there across
    // sessions when `local_table` is set, built for this session
    // otherwise); every later batch only probes it.
    std::shared_ptr<const JoinIndex> join_index;
    // Dedup of the rows already streamed (not kept by a starter, which
    // streams its projection once).  JoinIndex::JoinProject projects each
    // joined row of a batch straight into it and copies out only the
    // rows new to it.  It is made, over the projected schema, when the
    // partition's first joined row appears.
    std::optional<FreeTable> emitted;
    // Of the rows streamed: the starter's projection's, or `emitted`'s
    // from the batch that made it.  Until then it stays empty, so the eos
    // of a partition that never joins a row carries an empty schema.
    Schema stream_schema;
    std::unique_ptr<MappingCache> cache;
    bool any_rows = false;     // satisfiability witness seen
    bool done = false;
  };
  struct ParticipantState {
    SessionSpec spec;
    std::vector<PartitionSummary> partitions;
    size_t my_hop = 0;
    std::map<size_t, PartState> parts;
    // The session failed here (or a failure report passed through):
    // later-arriving batches are acked but ignored.
    bool failed = false;
  };
  struct InitiatorState {
    SessionSpec spec;
    std::vector<Attribute> x_attrs;
    std::vector<Attribute> y_attrs;
    SessionOptions opts;
    SessionResult result;
    std::vector<bool> partition_done;
    bool plan_received = false;
    // Final rows that raced ahead of the plan message.
    std::vector<FinalRowsMsg> pending_final;
    // Plan partitions, kept to name the terminal peers a timed-out
    // session is still waiting on.
    std::vector<PartitionSummary> plan_partitions;
    Network::TimerId deadline_timer = 0;  // 0 = none pending
  };

  void OnComputePlan(const Message& msg);
  void OnCoverBatch(const Message& msg);
  void OnFinalRows(const Message& msg);
  void OnPing(const Message& msg);
  void OnPong(const Message& msg);
  void OnSearch(const Message& msg);
  void OnSearchHit(const Message& msg);

  // Evaluates `search` against local data, replying to the origin, and
  // forwards translated copies to acquaintances.
  void HandleSearch(const SearchMsg& search, const std::string& from);

  // ---- semi-join prefiltering (SessionSpec::semijoin_filters) ----
  // Rows of `table` surviving the incoming per-attribute value filters
  // (rows whose ground X cell at a filtered attribute cannot match any
  // upstream value are dropped; sound by construction).
  static std::vector<Mapping> ReducedRows(
      const MappingTable& table,
      const std::map<std::string, ValueFilter>& filters);
  // Per-next-peer-attribute filters of the values `own`'s (reduced)
  // tables can produce on their Y side.
  std::map<std::string, ValueFilter> ComputeForwardFilters(
      const std::vector<MappingConstraint>& own,
      const std::map<std::string, ValueFilter>& incoming) const;

  // Starts streaming for partitions whose last hop is this peer.
  void StartPartitions(ParticipantState* state);
  // Streams the projection of partition `part_idx`'s local join, with
  // eos (this peer is its starter).
  Status StartPartition(ParticipantState* state, size_t part_idx);
  // Joins the batch `rows` over `schema`, read in place, with the local
  // tables of partition `part_idx` and streams the new results onward.
  Status ProcessBatch(ParticipantState* state, size_t part_idx,
                      const Schema& schema, std::span<const Mapping> rows,
                      bool eos);
  // Emits `rows` through the partition's cache toward the next peer (or
  // the initiator when terminal).
  Status EmitRows(ParticipantState* state, size_t part_idx,
                  std::vector<Mapping> rows, bool eos);
  Status SendBatch(ParticipantState* state, size_t part_idx,
                   std::vector<Mapping> rows, bool eos);

  // Initiator side: integrates final rows, finishes when all EOS'd.
  void IntegrateFinalRows(const FinalRowsMsg& final_rows);
  void FinishSession(InitiatorState* session);
  // Initiator-side session deadline (SessionOptions::session_deadline_us).
  void OnSessionDeadline(SessionId session);
  // Terminates the session at the initiator with `status`: cancels the
  // deadline timer and pending retransmissions, marks the result done.
  void MarkInitiatorFailed(InitiatorState* session, Status status);

  // Fails the session, reliably reporting `status` to the initiator.
  // The hints cover callers that fail before any participant state
  // exists (e.g. an unreachable next hop during information gathering).
  void FailSession(SessionId id, const Status& status,
                   const std::string& initiator_hint = "",
                   int64_t timeout_us = 0, int max_retransmits = -1);
  // Bounded FIFO for messages of sessions this peer knows nothing about
  // yet (racing ahead of the plan); overflow evicts the oldest.
  void ParkUnknownSession(const Message& msg);
  static constexpr size_t kMaxParkedMessages = 512;

  std::string id_;
  AttributeSet attributes_;
  Network* network_ = nullptr;
  std::map<std::string, std::vector<MappingConstraint>> constraints_;
  std::map<SessionId, ParticipantState> participant_sessions_;
  std::map<SessionId, InitiatorState> initiator_sessions_;
  // Cover batches that arrived before this peer's ComputePlan message,
  // bounded by kMaxParkedMessages across all sessions.
  std::deque<Message> parked_unknown_session_;
  // Sequencing, acks, retransmission and reordering (reliable_link.h).
  ReliableLink link_;
  std::shared_ptr<JoinIndexStore> join_indexes_;
  std::function<void(SessionId)> session_done_;
  // Per-session semi-join filters received during information gathering.
  std::map<SessionId, std::map<std::string, ValueFilter>> incoming_filters_;
  std::map<std::string, int> ponged_;
  std::set<uint64_t> seen_pings_;
  std::vector<Relation> data_;
  std::map<uint64_t, SearchState> searches_;  // searches started here
  // (search id, query fingerprint) pairs already processed — the same
  // search can legitimately reach a peer twice with different translated
  // keys via different paths.
  std::set<std::pair<uint64_t, size_t>> seen_searches_;
  uint64_t next_local_id_ = 1;
};

}  // namespace hyperion

#endif  // HYPERION_P2P_PEER_H_
