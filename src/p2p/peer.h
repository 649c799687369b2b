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
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/compose.h"
#include "core/constraint.h"
#include "core/cover_engine.h"
#include "core/schema.h"
#include "p2p/link_rtt.h"
#include "p2p/message.h"
#include "p2p/network_interface.h"
#include "p2p/protocol.h"
#include "storage/mapping_cache.h"

namespace hyperion {

/// \brief A peer in the network.  Not thread-safe; driven by SimNetwork's
/// single-threaded event loop.
class PeerNode {
 public:
  /// `link_rtt` holds the round-trip estimates behind the adaptive
  /// retransmit timeouts (link_rtt.h); pass one shared table to let
  /// estimates outlive this peer.  Null gives the peer a private table.
  PeerNode(std::string id, AttributeSet attributes,
           std::shared_ptr<LinkRttTable> link_rtt = nullptr);

  const std::string& id() const { return id_; }
  const AttributeSet& attributes() const { return attributes_; }

  /// \brief Registers this peer's handler with `network` (either the
  /// discrete-event SimNetwork or the real-thread ThreadedNetwork).  The
  /// network must outlive the peer's use.
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

  /// \brief Called, on this peer's timeline, when a session started here
  /// finishes, whether it succeeded or failed.  The cover is complete at
  /// that point, so the caller may end the session at every path peer
  /// (EndSession) instead of waiting for their retransmit timers.
  void SetSessionDoneCallback(std::function<void(SessionId)> done) {
    session_done_ = std::move(done);
  }

  /// \brief Ends `session` here: cancels its retransmit and probe
  /// timers, and this peer sends nothing more for it.  The send records
  /// stay, so an ack still in flight gives its round-trip sample.  Run it
  /// on this peer's timeline (a zero-delay ScheduleTimer), never from
  /// another peer's handler.
  void EndSession(SessionId session);

  /// \brief Message entry point (wired by Attach).
  void HandleMessage(const Message& msg);

 private:
  // ---- reliability layer (ack / retransmit / dedup / reorder) ----
  //
  // Every protocol-critical message (SessionInit, ComputePlan, CoverBatch,
  // FinalRows) travels on a *channel* — (session, kind, partition, peer) —
  // with a 1-based sequence number.  The receiver acks every accepted
  // copy, suppresses duplicates, and holds out-of-order arrivals in a
  // bounded reorder buffer so handlers always observe channel order (this
  // is what keeps covers byte-identical under loss and jitter).  Each ack
  // also carries the channel's next in-order seq: the sender drops every
  // send below it (a lost ack is covered by the next one), and when it is
  // below the acked seq the receiver has a hole, which the sender resends
  // at once, at most once per send (fast retransmit).  Otherwise the
  // sender first waits the link's adaptive RTO (link_rtt.h), then
  // retransmits with exponential backoff until acked; exhausting the
  // retries, or failing to arm a retransmit timer, fails the session
  // loudly, naming the peer and the phase.
  //
  // A channel's last message has no later ack to reveal its loss, so a
  // channel still holding unacked sends one probe timeout (PTO,
  // link_rtt.h) after its last transmission sends a tail-loss probe for
  // its highest unacked seq, then probes again at doubling intervals.
  // The receiver answers from its channel state: its next_expected, and
  // whether it holds the probed seq.  The sender drops what the answer
  // covers and resends next_expected at once if the probe left after
  // that send's last transmission (on a FIFO link it was lost).  So a
  // lost tail is resent one PTO and one round trip after it left, not
  // after a 100 ms RTO; the RTO timer stays as the loss-declaring
  // fallback.  EndSession stops all of it once the initiator is done.
  enum ReliableKind : uint8_t {
    kRelInit = 0,
    kRelPlan = 1,
    kRelBatch = 2,
    kRelFinal = 3,
  };
  /// Sentinel partition for error-bearing FinalRows (failure reports are
  /// their own channel, so they cannot collide with data sequences).
  static constexpr uint64_t kErrorPartition = ~0ull;
  static constexpr size_t kMaxReorderPerChannel = 1024;
  static constexpr size_t kMaxParkedMessages = 512;

  // (session, kind, partition, remote peer) — the remote is the
  // destination on the send side and the source on the receive side.
  using ChannelKey = std::tuple<SessionId, uint8_t, uint64_t, std::string>;
  // A channel key plus the sequence number, identifying one send.
  using SendKey =
      std::tuple<SessionId, uint8_t, uint64_t, std::string, uint64_t>;

  struct OutstandingSend {
    Message msg;  // full envelope, seq already stamped
    int attempts = 0;            // transmissions so far
    int64_t sent_at_us = 0;      // first transmission, for the RTT sample
    int64_t timeout_us = 0;      // wait before the next retransmission
    int64_t configured_timeout_us = 0;  // the session's RTO ceiling
    int max_retransmits = 0;
    Network::TimerId timer = 0;
    bool fast_retransmitted = false;  // resent once on a reported hole
    uint64_t sent_order = 0;  // tx_order_ stamp of the last transmission
    std::string phase;      // human-readable, for failure messages
    std::string initiator;  // where a failure report must go
  };
  // Tail-loss probe state of an outgoing channel with unacked sends.
  struct ChannelProbe {
    Network::TimerId timer = 0;  // 0 = none armed
    int64_t timer_due_us = 0;    // when `timer` fires
    int64_t due_us = 0;          // when the next probe is due
    int64_t backoff = 1;         // PTO multiple of the wait after a probe
    uint64_t probe_order = 0;    // tx_order_ stamp of the last probe
  };
  struct RecvChannel {
    uint64_t next_seq = 1;
    std::map<uint64_t, Message> parked;  // out-of-order, awaiting next_seq
  };

  // Dispatches `msg` to the protocol handlers (post-reliability).
  void Dispatch(const Message& msg);
  // Stamps a sequence number, sends, and arms the retransmit timer for
  // the link's RTO (at most `timeout_us`).  A timer that cannot be armed
  // fails the session (AbandonSend) and returns the status.
  Status SendReliable(SessionId session, uint8_t kind, uint64_t partition,
                      Message msg, int64_t timeout_us, int max_retransmits,
                      const char* phase, const std::string& initiator);
  void HandleRetransmitTimer(const SendKey& key);
  // Why a send goes out again: its retransmit timer fired, an ack
  // reported it as a hole, or a probe's answer reported it missing.
  enum class Resend { kTimer, kHole, kProbe };
  // Sends `out` again and restarts its channel's probe cycle.
  void Retransmit(const SendKey& key, OutstandingSend* out, Resend cause);
  // Starts the channel's probe cycle after a transmission whose RTO wait
  // is `rto_us`: the next probe is due one PTO from now.  A link with no
  // PTO, or a PTO no shorter than the RTO, is not probed.
  void ArmProbe(const ChannelKey& channel, int64_t rto_us);
  // Arms the probe timer so that it fires no later than `probe->due_us`.
  void ScheduleProbe(const ChannelKey& channel, ChannelProbe* probe);
  // Sends the channel's due probe for its highest unacked seq.
  void HandleProbeTimer(const ChannelKey& channel);
  // Cancels and forgets the channel's probe state.
  void DropProbe(const ChannelKey& channel);
  // The channel's outstanding sends, as a range of outstanding_sends_.
  using SendIter = std::map<SendKey, OutstandingSend>::iterator;
  std::pair<SendIter, SendIter> ChannelSends(const ChannelKey& channel);
  // Receive side: answers a probe from the channel's state.
  void OnProbe(const Message& msg);
  // Arms the retransmit timer of the outstanding send `key`; the error
  // names the peer and the phase.
  Status ArmRetransmitTimer(const SendKey& key);
  // Gives up on the outstanding send `key`: cancels the session's sends
  // and fails the session with `status`.
  void AbandonSend(const SendKey& key, const Status& status);
  // Drops the acked send and every send below the ack's next_expected;
  // fast-retransmits the hole an ack or a probe's answer reports.
  void OnAck(const Message& msg);
  // The channel (session, kind, partition) a sequenced session payload
  // travels on, and its seq field; `seq` is null for every other
  // payload.  `Msg` is Message or const Message.
  template <class Msg>
  static auto Sequenced(Msg& msg);
  // Receive side: ack, dedup, reorder, then Dispatch in channel order.
  void AdmitSequenced(const Message& msg, uint8_t kind, SessionId session,
                      uint64_t partition, uint64_t seq);
  void SendAck(const std::string& to, SessionId session, uint8_t kind,
               uint64_t partition, uint64_t seq, uint64_t next_expected,
               AckType type = AckType::kArrival);
  // Drops every outstanding send of `session` and cancels its timers.
  void CancelSessionSends(SessionId session);
  // Cancels and forgets the probe state of every channel of `session`.
  void DropSessionProbes(SessionId session);

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
    FreeTable local;           // join of my member tables
    // Index over `local`, built on the first non-empty batch that shares
    // attributes with it; every later batch only probes it.
    std::optional<JoinIndex> join_index;
    std::optional<FreeTable> emitted;  // dedup of rows already streamed
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
  // Joins `incoming` with the local tables of partition `part_idx` and
  // streams the results onward; pass nullptr for starter-originated rows.
  Status ProcessRows(ParticipantState* state, size_t part_idx,
                     const FreeTable* incoming, bool eos);
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

  std::string id_;
  AttributeSet attributes_;
  Network* network_ = nullptr;
  std::shared_ptr<LinkRttTable> link_rtt_;
  std::map<std::string, std::vector<MappingConstraint>> constraints_;
  std::map<SessionId, ParticipantState> participant_sessions_;
  std::map<SessionId, InitiatorState> initiator_sessions_;
  // Cover batches that arrived before this peer's ComputePlan message,
  // bounded by kMaxParkedMessages across all sessions.
  std::deque<Message> parked_unknown_session_;
  // Reliability state (see the reliability-layer section above).
  std::map<ChannelKey, uint64_t> next_send_seq_;
  std::map<SendKey, OutstandingSend> outstanding_sends_;
  std::map<ChannelKey, RecvChannel> recv_channels_;
  std::map<ChannelKey, ChannelProbe> probes_;
  // Orders this peer's transmissions and probes: a probe's answer
  // reveals a loss only of sends stamped before the probe.
  uint64_t tx_order_ = 0;
  // Sessions EndSession has ended: no sends, no retransmits.
  std::set<SessionId> ended_sessions_;
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
