#include "p2p/peer.h"

#include <algorithm>
#include <atomic>
#include <variant>

#include "common/hash_util.h"
#include "core/partition.h"
#include "core/query.h"
#include "obs/metrics.h"
#include "p2p/proto_trace.h"

namespace hyperion {

namespace {

// The low 32 bits of every session id, drawn process-wide: a QueryService
// builds fresh peers for every session, so a per-peer count would give
// every session it starts at one initiator the same id.
std::atomic<uint32_t> next_session_ordinal{1};

// Deduplicating append preserving first-seen order.
void AppendUnique(std::vector<std::string>* out, const std::string& name) {
  if (std::find(out->begin(), out->end(), name) == out->end()) {
    out->push_back(name);
  }
}

AttributeSet AttributeSetFromNames(const std::vector<std::string>& names) {
  std::vector<Attribute> attrs;
  attrs.reserve(names.size());
  for (const std::string& n : names) attrs.emplace_back(Attribute::String(n));
  return AttributeSet(std::move(attrs));
}

// Endpoint attributes the partition constrains, x-names first.
std::vector<std::string> KeepNamesFor(const PartitionSummary& partition,
                                      const SessionSpec& spec) {
  std::set<std::string> in_partition(partition.attr_names.begin(),
                                     partition.attr_names.end());
  std::vector<std::string> keep;
  for (const std::string& n : spec.x_names) {
    if (in_partition.count(n)) AppendUnique(&keep, n);
  }
  for (const std::string& n : spec.y_names) {
    if (in_partition.count(n)) AppendUnique(&keep, n);
  }
  return keep;
}

// Attributes peer `hop` must still ship upstream: the endpoint attributes
// plus everything constraints at earlier hops mention.
std::vector<std::string> NeededNamesFor(const PartitionSummary& partition,
                                        const SessionSpec& spec, size_t hop) {
  std::vector<std::string> needed = KeepNamesFor(partition, spec);
  for (const PartitionMemberRef& m : partition.members) {
    if (m.hop < hop) {
      for (const std::string& n : m.attr_names) AppendUnique(&needed, n);
    }
  }
  return needed;
}

// The members of `names` that `schema` has, in `names`' order.
std::vector<std::string> NamesIn(const std::vector<std::string>& names,
                                 const Schema& schema) {
  std::vector<std::string> present;
  for (const std::string& n : names) {
    if (schema.IndexOf(n)) present.push_back(n);
  }
  return present;
}

// The compose limits the session's initiator chose.
ComposeOptions ComposeOptionsOf(const SessionSpec& spec) {
  ComposeOptions compose;
  compose.materialize_limit = spec.materialize_limit;
  compose.max_result_rows = spec.max_result_rows;
  return compose;
}

}  // namespace

PeerNode::PeerNode(std::string id, AttributeSet attributes,
                   std::shared_ptr<LinkRttTable> link_rtt,
                   std::shared_ptr<JoinIndexStore> join_indexes)
    : id_(std::move(id)),
      attributes_(std::move(attributes)),
      link_(id_,
            link_rtt != nullptr ? std::move(link_rtt)
                                : std::make_shared<LinkRttTable>(),
            [this](const Message& msg) { Dispatch(msg); },
            [this](const ReliableLink::Abandoned& send) {
              FailSession(send.session, send.status, send.initiator,
                          send.timeout_us, send.max_retransmits);
            }),
      join_indexes_(join_indexes != nullptr
                        ? std::move(join_indexes)
                        : std::make_shared<JoinIndexStore>()) {}

Status PeerNode::Attach(Network* network) {
  if (network == nullptr) {
    return Status::InvalidArgument("null network");
  }
  HYP_RETURN_IF_ERROR(network->RegisterPeer(
      id_, [this](const Message& msg) { HandleMessage(msg); }));
  network_ = network;
  link_.Attach(network);
  return Status::OK();
}

Status PeerNode::AddConstraintTo(const std::string& neighbor,
                                 MappingConstraint c) {
  if (!c.valid()) {
    return Status::InvalidArgument("invalid constraint");
  }
  if (c.name().empty()) {
    return Status::InvalidArgument(
        "constraints must be named to participate in the protocol");
  }
  if (!attributes_.ContainsAll(c.x_schema().ToSet())) {
    return Status::InvalidArgument(
        "constraint X side " + c.x_schema().ToString() +
        " is not within peer '" + id_ + "' attributes");
  }
  std::vector<MappingConstraint>& list = constraints_[neighbor];
  for (const MappingConstraint& existing : list) {
    if (existing.name() == c.name()) {
      return Status::AlreadyExists("constraint '" + c.name() +
                                   "' already stored toward '" + neighbor +
                                   "'");
    }
  }
  list.push_back(std::move(c));
  return Status::OK();
}

const std::vector<MappingConstraint>& PeerNode::ConstraintsTo(
    const std::string& neighbor) const {
  static const std::vector<MappingConstraint> kEmpty;
  auto it = constraints_.find(neighbor);
  return it == constraints_.end() ? kEmpty : it->second;
}

std::vector<std::string> PeerNode::Acquaintances() const {
  std::vector<std::string> out;
  out.reserve(constraints_.size());
  for (const auto& [neighbor, list] : constraints_) {
    (void)list;
    out.push_back(neighbor);
  }
  return out;
}

Status PeerNode::FloodPing(int ttl) {
  if (network_ == nullptr) {
    return Status::FailedPrecondition("peer not attached to a network");
  }
  PingMsg ping;
  ping.ping_id = (std::hash<std::string>{}(id_) & 0xffffff) * 1000 +
                 next_local_id_++;
  ping.origin = id_;
  ping.ttl = ttl;
  ping.hops = 0;
  seen_pings_.insert(ping.ping_id);
  for (const std::string& neighbor : Acquaintances()) {
    HYP_RETURN_IF_ERROR(network_->Send(Message{id_, neighbor, ping}));
  }
  return Status::OK();
}

void PeerNode::HandleMessage(const Message& msg) { link_.Receive(msg); }

void PeerNode::Dispatch(const Message& msg) {
  if (std::holds_alternative<PingMsg>(msg.payload)) {
    OnPing(msg);
  } else if (std::holds_alternative<PongMsg>(msg.payload)) {
    OnPong(msg);
  } else if (std::holds_alternative<SessionInitMsg>(msg.payload)) {
    OnSessionInit(msg);
  } else if (std::holds_alternative<ComputePlanMsg>(msg.payload)) {
    OnComputePlan(msg);
  } else if (std::holds_alternative<CoverBatchMsg>(msg.payload)) {
    OnCoverBatch(msg);
  } else if (std::holds_alternative<FinalRowsMsg>(msg.payload)) {
    OnFinalRows(msg);
  } else if (std::holds_alternative<SearchMsg>(msg.payload)) {
    OnSearch(msg);
  } else if (std::holds_alternative<SearchHitMsg>(msg.payload)) {
    OnSearchHit(msg);
  }
}

void PeerNode::EndSession(SessionId session) { link_.EndSession(session); }

void PeerNode::OnPing(const Message& msg) {
  const auto& ping = std::get<PingMsg>(msg.payload);
  if (!seen_pings_.insert(ping.ping_id).second) return;  // already seen
  PongMsg pong;
  pong.ping_id = ping.ping_id;
  pong.responder = id_;
  pong.hops = ping.hops + 1;
  // Best-effort: discovery flooding has no delivery contract; a pong
  // that cannot be routed just means the origin learns of one fewer
  // peer this round.
  IgnoreStatus(network_->Send(Message{id_, ping.origin, pong}));
  if (ping.ttl <= 1) return;
  PingMsg forward = ping;
  forward.ttl -= 1;
  forward.hops += 1;
  for (const std::string& neighbor : Acquaintances()) {
    if (neighbor != msg.from && neighbor != ping.origin) {
      // Best-effort: same flooding contract as the pong above.
      IgnoreStatus(network_->Send(Message{id_, neighbor, forward}));
    }
  }
}

void PeerNode::OnPong(const Message& msg) {
  const auto& pong = std::get<PongMsg>(msg.payload);
  auto it = ponged_.find(pong.responder);
  if (it == ponged_.end() || it->second > pong.hops) {
    ponged_[pong.responder] = pong.hops;
  }
}

// ---------------------------------------------------------------------------
// Value search (Gnutella-style flooding with per-hop query translation)
// ---------------------------------------------------------------------------

namespace {

// Fingerprint of a query's content, to drop duplicate deliveries of the
// SAME translated query while still processing different translations.
size_t QueryFingerprint(const SelectionQuery& query) {
  size_t seed = query.attrs.size();
  for (const std::string& a : query.attrs) HashCombine(&seed, a);
  std::vector<size_t> key_hashes;
  key_hashes.reserve(query.keys.size());
  for (const Tuple& k : query.keys) key_hashes.push_back(TupleHash{}(k));
  std::sort(key_hashes.begin(), key_hashes.end());
  for (size_t h : key_hashes) HashCombine(&seed, h);
  return seed;
}

}  // namespace

Status PeerNode::AddData(Relation relation) {
  for (const Attribute& a : relation.schema().attrs()) {
    if (!attributes_.Contains(a.name())) {
      return Status::InvalidArgument("relation attribute '" + a.name() +
                                     "' is not a '" + id_ + "' attribute");
    }
  }
  data_.push_back(std::move(relation));
  return Status::OK();
}

Result<uint64_t> PeerNode::StartValueSearch(SelectionQuery query, int ttl) {
  if (network_ == nullptr) {
    return Status::FailedPrecondition("peer not attached to a network");
  }
  if (query.attrs.empty() || query.keys.empty()) {
    return Status::InvalidArgument("search needs attributes and keys");
  }
  uint64_t id = ((std::hash<std::string>{}(id_) & 0xffff) << 40) |
                next_local_id_++;
  SearchState& state = searches_[id];
  state.query = query;

  CountProto<"search.started">();
  SearchMsg search;
  search.search_id = id;
  search.origin = id_;
  search.ttl = ttl;
  search.query = std::move(query);
  HandleSearch(search, /*from=*/id_);
  return id;
}

void PeerNode::OnSearch(const Message& msg) {
  HandleSearch(std::get<SearchMsg>(msg.payload), msg.from);
}

void PeerNode::HandleSearch(const SearchMsg& search, const std::string& from) {
  if (!seen_searches_
           .insert({search.search_id, QueryFingerprint(search.query)})
           .second) {
    return;  // this exact translated query was already handled here
  }
  // 1. Evaluate against local data whose schema has the query attributes.
  for (const Relation& relation : data_) {
    auto hits = EvaluateQuery(search.query, relation);
    if (!hits.ok() || hits.value().empty()) continue;
    SearchHitMsg hit;
    hit.search_id = search.search_id;
    hit.responder = id_;
    hit.schema = hits.value().schema();
    hit.tuples = hits.value().tuples();
    hit.complete = search.complete;
    if (search.origin == id_) {
      Message local{id_, id_, std::move(hit)};
      OnSearchHit(local);
    } else {
      // Best-effort: flooding search reports hits opportunistically; a
      // hit that cannot reach the origin is indistinguishable from one
      // past the TTL horizon (the header documents this).
      IgnoreStatus(
          network_->Send(Message{id_, search.origin, std::move(hit)}));
    }
  }
  if (search.ttl <= 1) return;
  // 2. Translate toward each acquaintance and forward.
  for (const auto& [neighbor, constraints] : constraints_) {
    if (neighbor == from) continue;
    for (const MappingConstraint& c : constraints) {
      auto translated = TranslateQuery(search.query, c.table());
      if (!translated.ok()) continue;  // table not over these attributes
      SearchMsg forward;
      forward.search_id = search.search_id;
      forward.origin = search.origin;
      forward.ttl = search.ttl - 1;
      forward.complete = search.complete && translated.value().complete;
      forward.query = std::move(translated.value().query);
      if (forward.query.keys.empty()) {
        // Nothing translatable toward this neighbor; still report the
        // incompleteness to the origin so it knows coverage is partial.
        if (!forward.complete && search.origin == id_) {
          searches_[search.search_id].complete = false;
        }
        continue;
      }
      // Best-effort: same flooding contract as the hit report above.
      IgnoreStatus(
          network_->Send(Message{id_, neighbor, std::move(forward)}));
    }
  }
}

void PeerNode::OnSearchHit(const Message& msg) {
  const auto& hit = std::get<SearchHitMsg>(msg.payload);
  auto it = searches_.find(hit.search_id);
  if (it == searches_.end()) return;
  SearchState& state = it->second;
  state.complete = state.complete && hit.complete;
  CountProto<"search.hits">();
  CountProto<"search.hit_tuples">(hit.tuples.size());
  if (state.first_hit_us < 0) state.first_hit_us = network_->now_us();
  auto [rel_it, inserted] =
      state.hits.emplace(hit.responder, Relation(hit.schema));
  (void)inserted;
  for (const Tuple& t : hit.tuples) rel_it->second.AddUnchecked(t);
}

Result<const PeerNode::SearchState*> PeerNode::Search(
    uint64_t search_id) const {
  auto it = searches_.find(search_id);
  if (it == searches_.end()) {
    return Status::NotFound("no search " + std::to_string(search_id) +
                            " started at this peer");
  }
  return &it->second;
}

// ---------------------------------------------------------------------------
// Information-gathering phase
// ---------------------------------------------------------------------------

namespace {

// This peer's own hop partitions as wire summaries.
std::vector<PartitionSummary> OwnPartitionSummaries(
    const std::vector<MappingConstraint>& own, size_t hop) {
  std::vector<PartitionSummary> out;
  for (const Partition& p : ComputePartitions(own)) {
    PartitionSummary s;
    s.first_hop = hop;
    s.last_hop = hop;
    s.attr_names = p.attributes.Names();
    for (size_t idx : p.constraint_indices) {
      PartitionMemberRef ref;
      ref.hop = hop;
      ref.table_name = own[idx].name();
      ref.attr_names = own[idx].Attributes().Names();
      s.members.push_back(std::move(ref));
    }
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace

std::vector<PartitionSummary> PeerNode::MergeSummaries(
    const std::vector<PartitionSummary>& upstream, size_t hop,
    const std::vector<MappingConstraint>& own) {
  std::vector<PartitionSummary> items = upstream;
  std::vector<PartitionSummary> mine = OwnPartitionSummaries(own, hop);
  items.insert(items.end(), mine.begin(), mine.end());

  std::vector<AttributeSet> sets;
  sets.reserve(items.size());
  for (const PartitionSummary& s : items) {
    sets.push_back(AttributeSetFromNames(s.attr_names));
  }
  std::vector<PartitionSummary> merged;
  for (const std::vector<size_t>& group : GroupByAttributeOverlap(sets)) {
    PartitionSummary s;
    AttributeSet attrs;
    s.first_hop = items[group.front()].first_hop;
    s.last_hop = items[group.front()].last_hop;
    for (size_t i : group) {
      const PartitionSummary& part = items[i];
      s.members.insert(s.members.end(), part.members.begin(),
                       part.members.end());
      attrs = attrs.Union(sets[i]);
      s.first_hop = std::min(s.first_hop, part.first_hop);
      s.last_hop = std::max(s.last_hop, part.last_hop);
    }
    std::sort(s.members.begin(), s.members.end(),
              [](const PartitionMemberRef& a, const PartitionMemberRef& b) {
                return a.hop != b.hop ? a.hop < b.hop
                                      : a.table_name < b.table_name;
              });
    s.attr_names = attrs.Names();
    merged.push_back(std::move(s));
  }
  return merged;
}

std::vector<Mapping> PeerNode::ReducedRows(
    const MappingTable& table,
    const std::map<std::string, ValueFilter>& filters) {
  std::vector<Mapping> out;
  out.reserve(table.rows().size());
  for (const Mapping& row : table.rows()) {
    bool keep = true;
    for (size_t i = 0; i < table.x_arity() && keep; ++i) {
      if (!row.cell(i).is_constant()) continue;
      auto it = filters.find(table.x_schema().attr(i).name());
      if (it != filters.end() && !it->second.MayContain(row.cell(i).value())) {
        keep = false;
      }
    }
    if (keep) out.push_back(row);
  }
  // Semi-join effectiveness: rows_kept / rows_in is the filter's
  // reduction ratio (paper §7's traffic discussion).
  if (!filters.empty()) {
    CountProto<"semijoin.rows_in">(table.rows().size());
    CountProto<"semijoin.rows_kept">(out.size());
  }
  return out;
}

std::map<std::string, ValueFilter> PeerNode::ComputeForwardFilters(
    const std::vector<MappingConstraint>& own,
    const std::map<std::string, ValueFilter>& incoming) const {
  // Collect producible Y values per attribute over the REDUCED tables, so
  // reductions compose hop over hop.
  std::map<std::string, std::vector<Value>> values;
  std::map<std::string, bool> pass_all;
  for (const MappingConstraint& c : own) {
    const MappingTable& table = c.table();
    for (const Mapping& row : ReducedRows(table, incoming)) {
      for (size_t i = table.x_arity(); i < row.arity(); ++i) {
        const std::string& attr = table.schema().attr(i).name();
        if (row.cell(i).is_variable()) {
          pass_all[attr] = true;
        } else {
          values[attr].push_back(row.cell(i).value());
        }
      }
    }
  }
  std::map<std::string, ValueFilter> out;
  for (const auto& [attr, all] : pass_all) {
    (void)all;
    out[attr].pass_all = true;
  }
  for (const auto& [attr, vals] : values) {
    if (out.count(attr)) continue;  // already pass-all
    ValueFilter filter;
    filter.bloom = BloomFilter(vals.size());
    for (const Value& v : vals) filter.bloom.Add(v);
    out[attr] = std::move(filter);
  }
  return out;
}

void PeerNode::OnSessionInit(const Message& msg) {
  const auto& init = std::get<SessionInitMsg>(msg.payload);
  const SessionSpec& spec = init.spec;
  auto self = std::find(spec.path_peers.begin(), spec.path_peers.end(), id_);
  if (self == spec.path_peers.end()) return;  // not for us
  size_t k = static_cast<size_t>(self - spec.path_peers.begin());
  size_t n = spec.path_peers.size();
  if (k + 1 >= n) return;  // the last peer never receives init

  if (spec.semijoin_filters) {
    incoming_filters_[spec.id] = init.forward_filters;
  }
  const std::vector<MappingConstraint>& own =
      ConstraintsTo(spec.path_peers[k + 1]);
  std::vector<PartitionSummary> merged =
      MergeSummaries(init.partitions, k, own);
  CountProto<"cover.gather_hops">();
  TraceProto(network_, id_, "gather.forward", spec.id, -1,
             static_cast<int>(k), static_cast<int64_t>(merged.size()));
  if (k == n - 2) {
    DistributePlan(spec, std::move(merged));
  } else {
    SessionInitMsg forward;
    forward.spec = spec;
    forward.partitions = std::move(merged);
    if (spec.semijoin_filters) {
      forward.forward_filters =
          ComputeForwardFilters(own, incoming_filters_[spec.id]);
    }
    // The link owns failure handling: it retransmits on a timer and
    // escalates to a loud session failure at the attempt cap, so the
    // first send's Status carries no extra information.
    IgnoreStatus(link_.Send(Message{id_, spec.path_peers[k + 1], forward},
                            spec.retransmit_timeout_us, spec.max_retransmits,
                            "information gathering", spec.path_peers[0]));
  }
}

void PeerNode::DistributePlan(const SessionSpec& spec,
                              std::vector<PartitionSummary> partitions) {
  TraceProto(network_, id_, "plan.distributed", spec.id, -1, -1,
             static_cast<int64_t>(partitions.size()));
  ComputePlanMsg plan;
  plan.spec = spec;
  plan.partitions = std::move(partitions);
  for (size_t i = 0; i + 1 < spec.path_peers.size(); ++i) {
    if (spec.path_peers[i] == id_) continue;  // handled locally below
    // The link owns failure handling (see OnSessionInit).
    IgnoreStatus(link_.Send(Message{id_, spec.path_peers[i], plan},
                            spec.retransmit_timeout_us, spec.max_retransmits,
                            "plan distribution", spec.path_peers[0]));
  }
  // Handle our own copy synchronously.
  Message local{id_, id_, plan};
  OnComputePlan(local);
}

// ---------------------------------------------------------------------------
// Computation phase
// ---------------------------------------------------------------------------

void PeerNode::OnComputePlan(const Message& msg) {
  const auto& plan = std::get<ComputePlanMsg>(msg.payload);
  const SessionSpec& spec = plan.spec;
  auto self = std::find(spec.path_peers.begin(), spec.path_peers.end(), id_);
  if (self == spec.path_peers.end()) return;
  size_t my_hop = static_cast<size_t>(self - spec.path_peers.begin());

  // Initiator bookkeeping (peer 0 holds the session result).
  if (my_hop == 0) {
    auto init_it = initiator_sessions_.find(spec.id);
    if (init_it != initiator_sessions_.end()) {
      InitiatorState& session = init_it->second;
      if (!session.plan_received) {
        session.plan_received = true;
        session.plan_partitions = plan.partitions;
        size_t k = plan.partitions.size();
        session.result.partition_covers.resize(k);
        session.result.partition_keep_names.resize(k);
        session.result.partition_satisfiable.assign(k, true);
        session.partition_done.assign(k, false);
        for (size_t i = 0; i < k; ++i) {
          session.result.partition_keep_names[i] =
              KeepNamesFor(plan.partitions[i], spec);
        }
        if (k == 0) {
          FinishSession(&session);
        } else {
          std::vector<FinalRowsMsg> stashed = std::move(session.pending_final);
          session.pending_final.clear();
          for (const FinalRowsMsg& f : stashed) IntegrateFinalRows(f);
        }
      }
    }
  }

  ParticipantState& state = participant_sessions_[spec.id];
  state.spec = spec;
  state.partitions = plan.partitions;
  state.my_hop = my_hop;
  TraceProto(network_, id_, "plan.received", spec.id, -1,
             static_cast<int>(my_hop),
             static_cast<int64_t>(plan.partitions.size()));

  const std::vector<MappingConstraint>* own = nullptr;
  if (my_hop + 1 < spec.path_peers.size()) {
    own = &ConstraintsTo(spec.path_peers[my_hop + 1]);
  }

  for (size_t p = 0; p < plan.partitions.size(); ++p) {
    const PartitionSummary& partition = plan.partitions[p];
    PartState& ps = state.parts[p];
    ps.keep_names = KeepNamesFor(partition, spec);
    ps.needed_names = NeededNamesFor(partition, spec, my_hop);
    ps.cache = std::make_unique<MappingCache>(spec.cache_capacity);

    // Am I a member owner in this partition?
    std::vector<const MappingConstraint*> members;
    if (own != nullptr) {
      for (const PartitionMemberRef& ref : partition.members) {
        if (ref.hop != my_hop) continue;
        for (const MappingConstraint& c : *own) {
          if (c.name() == ref.table_name) {
            members.push_back(&c);
            break;
          }
        }
      }
    }
    ps.involved = !members.empty();
    if (!ps.involved) continue;
    ps.is_starter = (partition.last_hop == my_hop);
    ps.is_terminal = (partition.first_hop == my_hop);

    // Join my member tables (overlap order with Cartesian fallback),
    // after applying any semi-join prefilters from upstream.  A lone
    // unfiltered member is read in place.
    static const std::map<std::string, ValueFilter> kNoFilters;
    const std::map<std::string, ValueFilter>* filters = &kNoFilters;
    if (spec.semijoin_filters) {
      auto fit = incoming_filters_.find(spec.id);
      if (fit != incoming_filters_.end()) filters = &fit->second;
    }
    if (members.size() == 1 && filters->empty()) {
      const MappingConstraint& c = *members[0];
      ps.local = std::shared_ptr<const FreeTable>(c.table_ptr(),
                                                  &c.table().free_table());
      ps.local_table = c.name();
    } else {
      auto reduced_table = [&](const MappingTable& t) {
        FreeTable f(t.schema());
        for (Mapping& row : ReducedRows(t, *filters)) f.AddRow(std::move(row));
        return f;
      };
      FreeTable local = reduced_table(members[0]->table());
      const ComposeOptions compose = ComposeOptionsOf(spec);
      for (size_t i = 1; i < members.size(); ++i) {
        auto joined =
            JoinOrProduct(local, reduced_table(members[i]->table()), compose);
        if (!joined.ok()) {
          FailSession(spec.id, joined.status());
          return;
        }
        local = std::move(joined).value();
      }
      ps.local = std::make_shared<const FreeTable>(std::move(local));
    }
    TraceProto(network_, id_, "partition.local_join", spec.id,
               static_cast<int64_t>(p), static_cast<int>(my_hop),
               static_cast<int64_t>(ps.local->size()));
  }

  // Starters begin streaming immediately.
  StartPartitions(&state);

  // Batches that raced ahead of the plan, replayed in arrival order.
  std::vector<Message> stashed;
  for (auto it = parked_unknown_session_.begin();
       it != parked_unknown_session_.end();) {
    const auto* batch = std::get_if<CoverBatchMsg>(&it->payload);
    if (batch != nullptr && batch->session == spec.id) {
      stashed.push_back(std::move(*it));
      it = parked_unknown_session_.erase(it);
    } else {
      ++it;
    }
  }
  for (const Message& m : stashed) OnCoverBatch(m);
}

void PeerNode::StartPartitions(ParticipantState* state) {
  for (auto& [p, ps] : state->parts) {
    if (ps.involved && ps.is_starter && !ps.done) {
      Status s = StartPartition(state, p);
      if (!s.ok()) {
        FailSession(state->spec.id, s);
        return;
      }
    }
  }
}

Status PeerNode::StartPartition(ParticipantState* state, size_t part_idx) {
  PartState& ps = state->parts.at(part_idx);
  std::vector<Mapping> rows;
  if (!ps.local->empty()) {
    std::vector<std::string> project_to =
        NamesIn(ps.needed_names, ps.local->schema());
    if (project_to.empty()) {
      // Terminal of a middle-only partition: only satisfiability matters.
      ps.any_rows = true;
    } else {
      // A starter streams its local join's projection once, with eos, so
      // the projection is exactly the set it emits: no dedup is needed.
      // For a member table read in place it is kept in the store.
      HYP_ASSIGN_OR_RETURN(
          std::shared_ptr<const FreeTable> projected,
          join_indexes_->GetProjection(ps.local_table, ps.local, project_to,
                                       ComposeOptionsOf(state->spec)));
      ps.stream_schema = projected->schema();
      ps.any_rows = !projected->empty();
      rows.assign(projected->rows().begin(), projected->rows().end());
    }
  }
  return EmitRows(state, part_idx, std::move(rows), /*eos=*/true);
}

Status PeerNode::ProcessBatch(ParticipantState* state, size_t part_idx,
                              const Schema& schema,
                              std::span<const Mapping> rows, bool eos) {
  PartState& ps = state->parts.at(part_idx);
  if (ps.done) return Status::OK();

  std::vector<Mapping> fresh;
  if (!rows.empty()) {
    const ComposeOptions compose = ComposeOptionsOf(state->spec);
    const bool first_rows = !ps.emitted;
    // Project onto what is still needed (endpoint attrs + earlier hops).
    std::vector<std::string> project_to;
    size_t joined_rows = 0;
    if (ps.local->schema().ToSet().Overlaps(schema.ToSet())) {
      if (ps.join_index == nullptr) {
        HYP_ASSIGN_OR_RETURN(
            ps.join_index,
            join_indexes_->Get(ps.local_table, ps.local, schema));
      }
      // Join, project and dedup in one pass: each fresh row is built
      // once, kept in `emitted` and copied on.
      project_to = NamesIn(ps.needed_names, ps.join_index->out_schema());
      HYP_ASSIGN_OR_RETURN(joined_rows, ps.join_index->JoinProject(
                                            schema, rows, project_to,
                                            compose, &ps.emitted, &fresh));
    } else {
      HYP_ASSIGN_OR_RETURN(FreeTable joined,
                           ps.local->CartesianProduct(schema, rows, compose));
      project_to = NamesIn(ps.needed_names, joined.schema());
      joined_rows = joined.size();
      if (!joined.empty() && !project_to.empty()) {
        HYP_ASSIGN_OR_RETURN(FreeTable projected,
                             joined.ProjectOnto(project_to, compose));
        if (!ps.emitted) ps.emitted.emplace(projected.schema());
        // Each fresh row is copied once, into `emitted`, and moved on.
        for (Mapping& row : std::move(projected).TakeRows()) {
          if (ps.emitted->AddRow(row)) fresh.push_back(std::move(row));
        }
      }
    }
    if (joined_rows > 0) {
      if (project_to.empty()) {
        // Terminal of a middle-only partition: only satisfiability
        // matters.
        ps.any_rows = true;
      } else {
        if (first_rows) ps.stream_schema = ps.emitted->schema();
        ps.any_rows = ps.any_rows || !ps.emitted->empty();
      }
    }
  }
  return EmitRows(state, part_idx, std::move(fresh), eos);
}

Status PeerNode::EmitRows(ParticipantState* state, size_t part_idx,
                          std::vector<Mapping> rows, bool eos) {
  PartState& ps = state->parts.at(part_idx);
  for (Mapping& row : rows) {
    if (ps.cache->Add(std::move(row))) {
      HYP_RETURN_IF_ERROR(
          SendBatch(state, part_idx, ps.cache->Drain(), /*eos=*/false));
    }
  }
  if (eos) {
    HYP_RETURN_IF_ERROR(
        SendBatch(state, part_idx, ps.cache->Drain(), /*eos=*/true));
    ps.done = true;
  }
  return Status::OK();
}

Status PeerNode::SendBatch(ParticipantState* state, size_t part_idx,
                           std::vector<Mapping> rows, bool eos) {
  if (rows.empty() && !eos) return Status::OK();
  PartState& ps = state->parts.at(part_idx);
  const Schema& schema = ps.stream_schema;

  CountProto<"cover.batches_sent">();
  CountProto<"cover.rows_streamed">(rows.size());
  if constexpr (obs::kMetricsEnabled) {
    // Looked up once: this runs on every batch sent.
    static obs::Histogram* const batch_rows =
        obs::MetricRegistry::Default().GetHistogram("cover.batch_rows",
                                                    obs::SizeBounds());
    batch_rows->Observe(static_cast<int64_t>(rows.size()));
  }
  TraceProto(network_, id_,
             ps.is_terminal ? "cover.final_sent" : "cover.batch_sent",
             state->spec.id, static_cast<int64_t>(part_idx),
             static_cast<int>(state->my_hop),
             static_cast<int64_t>(rows.size()), eos ? "eos" : "");

  if (ps.is_terminal) {
    FinalRowsMsg final_rows;
    final_rows.session = state->spec.id;
    final_rows.partition = part_idx;
    final_rows.schema = schema;
    final_rows.rows = std::move(rows);
    final_rows.eos = eos;
    final_rows.satisfiable = ps.any_rows;
    const std::string& initiator = state->spec.path_peers[0];
    if (initiator == id_) {
      IntegrateFinalRows(final_rows);
      return Status::OK();
    }
    return link_.Send(Message{id_, initiator, std::move(final_rows)},
                      state->spec.retransmit_timeout_us,
                      state->spec.max_retransmits, "final-row delivery",
                      initiator);
  }
  CoverBatchMsg batch;
  batch.session = state->spec.id;
  batch.partition = part_idx;
  batch.schema = schema;
  batch.rows = std::move(rows);
  batch.eos = eos;
  const std::string& upstream = state->spec.path_peers[state->my_hop - 1];
  return link_.Send(Message{id_, upstream, std::move(batch)},
                    state->spec.retransmit_timeout_us,
                    state->spec.max_retransmits, "cover streaming",
                    state->spec.path_peers[0]);
}

void PeerNode::OnCoverBatch(const Message& msg) {
  const auto& batch = std::get<CoverBatchMsg>(msg.payload);
  auto it = participant_sessions_.find(batch.session);
  if (it == participant_sessions_.end()) {
    ParkUnknownSession(msg);  // raced ahead of plan
    return;
  }
  ParticipantState& state = it->second;
  if (state.failed) return;  // already reported; ignore the stragglers
  auto ps_it = state.parts.find(batch.partition);
  if (ps_it == state.parts.end() || !ps_it->second.involved) {
    FailSession(state.spec.id,
                Status::Internal("batch for a partition this peer ("
                                 + id_ + ") does not own"));
    return;
  }
  // The decoded rows are probed in place.  Every one of them passed the
  // sending peer's `emitted` dedup (or is a row of a starter's
  // projection) under this same schema, so they are normalized,
  // satisfiable and distinct: adding them to a FreeTable first would
  // drop none and reorder none.
  Status s = ProcessBatch(&state, batch.partition, batch.schema, batch.rows,
                          batch.eos);
  if (!s.ok()) FailSession(state.spec.id, s);
}

// ---------------------------------------------------------------------------
// Initiator side
// ---------------------------------------------------------------------------

Result<SessionId> PeerNode::StartCoverSession(
    std::vector<std::string> path_peers, std::vector<Attribute> x_attrs,
    std::vector<Attribute> y_attrs, const SessionOptions& opts) {
  if (network_ == nullptr) {
    return Status::FailedPrecondition("peer not attached to a network");
  }
  if (path_peers.size() < 2) {
    return Status::InvalidArgument("a path needs at least two peers");
  }
  if (path_peers.front() != id_) {
    return Status::InvalidArgument("sessions start at the first path peer");
  }
  if (x_attrs.empty() || y_attrs.empty()) {
    return Status::InvalidArgument("X and Y endpoints must be nonempty");
  }
  for (const Attribute& a : x_attrs) {
    if (!attributes_.Contains(a.name())) {
      return Status::InvalidArgument("X attribute '" + a.name() +
                                     "' not at this peer");
    }
  }

  SessionSpec spec;
  spec.id = ((std::hash<std::string>{}(id_) & 0xffff) << 32) |
            next_session_ordinal++;
  spec.path_peers = std::move(path_peers);
  for (const Attribute& a : x_attrs) spec.x_names.push_back(a.name());
  for (const Attribute& a : y_attrs) spec.y_names.push_back(a.name());
  spec.cache_capacity = opts.cache_capacity;
  spec.materialize_limit = opts.compose.materialize_limit;
  spec.max_result_rows = opts.compose.max_result_rows;
  spec.semijoin_filters = opts.semijoin_filters;
  spec.retransmit_timeout_us = opts.retransmit_timeout_us;
  spec.max_retransmits = opts.max_retransmits;

  InitiatorState& session = initiator_sessions_[spec.id];
  session.spec = spec;
  session.x_attrs = std::move(x_attrs);
  session.y_attrs = std::move(y_attrs);
  session.opts = opts;
  session.result.stats.start_us = network_->now_us();
  CountProto<"cover.sessions_started">();
  TraceProto(network_, id_, "session.start", spec.id, -1, 0,
             static_cast<int64_t>(spec.path_peers.size()));

  // Backstop: whatever goes wrong out there, the session terminates with
  // a diagnosable error no later than this.
  if (opts.session_deadline_us > 0) {
    auto deadline = network_->ScheduleTimer(
        id_, opts.session_deadline_us,
        [this, sid = spec.id] { OnSessionDeadline(sid); });
    if (deadline.ok()) session.deadline_timer = deadline.value();
  }

  std::vector<PartitionSummary> own =
      OwnPartitionSummaries(ConstraintsTo(spec.path_peers[1]), /*hop=*/0);
  if (spec.path_peers.size() == 2) {
    DistributePlan(spec, std::move(own));
  } else {
    SessionInitMsg init;
    init.spec = spec;
    init.partitions = std::move(own);
    if (spec.semijoin_filters) {
      init.forward_filters = ComputeForwardFilters(
          ConstraintsTo(spec.path_peers[1]), {});
    }
    HYP_RETURN_IF_ERROR(link_.Send(Message{id_, spec.path_peers[1], init},
                                   spec.retransmit_timeout_us,
                                   spec.max_retransmits,
                                   "information gathering", id_));
  }
  return spec.id;
}

void PeerNode::OnFinalRows(const Message& msg) {
  IntegrateFinalRows(std::get<FinalRowsMsg>(msg.payload));
}

void PeerNode::IntegrateFinalRows(const FinalRowsMsg& final_rows) {
  auto it = initiator_sessions_.find(final_rows.session);
  if (it == initiator_sessions_.end()) return;
  InitiatorState& session = it->second;
  if (session.result.done) return;

  if (!final_rows.error.empty()) {
    // Reconstruct the remote peer's status so the initiator sees the
    // true failure class (Unavailable, DeadlineExceeded, ...), not a
    // generic Internal wrapper.
    StatusCode code = final_rows.error_code == 0
                          ? StatusCode::kInternal
                          : static_cast<StatusCode>(final_rows.error_code);
    MarkInitiatorFailed(&session, Status(code, final_rows.error));
    return;
  }
  if (!session.plan_received) {
    // Raced ahead of the plan message; replayed in OnComputePlan.
    session.pending_final.push_back(final_rows);
    return;
  }
  size_t p = final_rows.partition;
  if (p >= session.result.partition_covers.size()) return;
  SessionStats& stats = session.result.stats;
  int64_t now = network_->now_us();

  if (!final_rows.rows.empty()) {
    if (stats.first_row_us < 0) {
      stats.first_row_us = now;
      TraceProto(network_, id_, "session.first_row", final_rows.session,
                 static_cast<int64_t>(p), 0,
                 static_cast<int64_t>(final_rows.rows.size()));
    }
    if (!stats.partition_first_row_us.count(p)) {
      stats.partition_first_row_us[p] = now;
    }
    CountProto<"cover.final_rows_received">(final_rows.rows.size());
    stats.rows_received += final_rows.rows.size();
    FreeTable& cover = session.result.partition_covers[p];
    if (cover.schema().arity() == 0) {
      cover = FreeTable(final_rows.schema);
    }
    for (const Mapping& row : final_rows.rows) cover.AddRow(row);
  }
  if (final_rows.eos) {
    session.partition_done[p] = true;
    stats.partition_complete_us[p] = now;
    session.result.partition_satisfiable[p] = final_rows.satisfiable;
    TraceProto(network_, id_, "partition.complete", final_rows.session,
               static_cast<int64_t>(p), 0,
               static_cast<int64_t>(
                   session.result.partition_covers[p].size()));
    bool all_done = true;
    for (bool done : session.partition_done) all_done = all_done && done;
    if (all_done) FinishSession(&session);
  }
}

void PeerNode::FinishSession(InitiatorState* session) {
  if (session->deadline_timer != 0) {
    network_->CancelTimer(session->deadline_timer);
    session->deadline_timer = 0;
  }
  SessionResult& result = session->result;
  if (session->opts.combine_partitions) {
    // The partition covers move into the combination and back, uncopied.
    std::vector<PartitionCover> covers;
    for (size_t p = 0; p < result.partition_covers.size(); ++p) {
      PartitionCover pc;
      pc.keep_names = result.partition_keep_names[p];
      pc.cover = std::move(result.partition_covers[p]);
      pc.satisfiable = result.partition_satisfiable[p];
      covers.push_back(std::move(pc));
    }
    CoverEngineOptions engine_opts;
    engine_opts.compose = session->opts.compose;
    auto combined = CoverEngine::CombinePartitionCovers(
        covers, session->x_attrs, session->y_attrs, engine_opts);
    for (size_t p = 0; p < covers.size(); ++p) {
      result.partition_covers[p] = std::move(covers[p].cover);
    }
    if (!combined.ok()) {
      result.error = combined.status();
    } else {
      result.cover = std::move(combined).value();
    }
  }
  result.stats.complete_us = network_->now_us();
  if (result.stats.first_row_us < 0) {
    result.stats.first_row_us = result.stats.complete_us;
  }
  result.done = true;
  CountProto<"cover.sessions_completed">();
  if constexpr (obs::kMetricsEnabled) {
    static obs::Histogram* const session_duration =
        obs::MetricRegistry::Default().GetHistogram(
            "cover.session_duration_us", obs::LatencyBoundsUs());
    session_duration->Observe(result.stats.complete_us -
                              result.stats.start_us);
  }
  TraceProto(network_, id_, "session.complete", session->spec.id, -1, 0,
             static_cast<int64_t>(result.stats.rows_received));
  if (session_done_) session_done_(session->spec.id);
}

void PeerNode::MarkInitiatorFailed(InitiatorState* session, Status status) {
  if (session->result.done) return;
  session->result.done = true;
  session->result.error = std::move(status);
  session->result.stats.complete_us = network_->now_us();
  if (session->deadline_timer != 0) {
    network_->CancelTimer(session->deadline_timer);
    session->deadline_timer = 0;
  }
  link_.CancelSession(session->spec.id);
  auto part_it = participant_sessions_.find(session->spec.id);
  if (part_it != participant_sessions_.end()) part_it->second.failed = true;
  if (session_done_) session_done_(session->spec.id);
}

void PeerNode::OnSessionDeadline(SessionId session_id) {
  auto it = initiator_sessions_.find(session_id);
  if (it == initiator_sessions_.end()) return;
  InitiatorState& session = it->second;
  session.deadline_timer = 0;  // it just fired
  if (session.result.done) return;
  CountProto<"proto.session_timeouts">();
  std::string detail;
  if (!session.plan_received) {
    detail = "no compute plan received (information-gathering phase)";
  } else {
    detail = "computation phase; awaiting final rows from";
    std::vector<std::string> waiting;
    for (size_t p = 0; p < session.partition_done.size(); ++p) {
      if (session.partition_done[p]) continue;
      size_t hop = session.plan_partitions[p].first_hop;
      if (hop < session.spec.path_peers.size()) {
        AppendUnique(&waiting, session.spec.path_peers[hop]);
      }
    }
    for (const std::string& w : waiting) detail += " '" + w + "'";
  }
  TraceProto(network_, id_, "session.timeout", session_id, -1, 0, 0, detail);
  MarkInitiatorFailed(
      &session, Status::DeadlineExceeded(
                    "session " + std::to_string(session_id) +
                    " exceeded its deadline: " + detail));
}

void PeerNode::ParkUnknownSession(const Message& msg) {
  parked_unknown_session_.push_back(msg);
  if (parked_unknown_session_.size() > kMaxParkedMessages) {
    parked_unknown_session_.pop_front();
    CountProto<"proto.parked_evicted">();
  }
}

void PeerNode::FailSession(SessionId id, const Status& status,
                           const std::string& initiator_hint,
                           int64_t timeout_us, int max_retransmits) {
  auto part_it = participant_sessions_.find(id);
  // Already reported (e.g. a send that could not arm its retransmit
  // timer failed the session before its caller saw the error).
  if (part_it != participant_sessions_.end() && part_it->second.failed) {
    return;
  }
  CountProto<"cover.sessions_failed">();
  TraceProto(network_, id_, "session.failed", id, -1, -1, 0,
             status.ToString());
  link_.CancelSession(id);

  // Who do we tell?  Participant state knows the spec; otherwise the
  // caller's hint (taken from the undeliverable message) is all we have.
  std::string initiator = initiator_hint;
  if (part_it != participant_sessions_.end()) {
    part_it->second.failed = true;
    initiator = part_it->second.spec.path_peers[0];
    timeout_us = part_it->second.spec.retransmit_timeout_us;
    max_retransmits = part_it->second.spec.max_retransmits;
  }
  if (initiator_sessions_.count(id)) initiator = id_;
  if (initiator.empty()) return;  // nothing known about this session

  FinalRowsMsg final_rows;
  final_rows.session = id;
  final_rows.partition = ReliableLink::kErrorPartition;
  final_rows.error = status.message();
  final_rows.error_code = static_cast<int32_t>(status.code());
  final_rows.eos = true;
  if (initiator == id_) {
    IntegrateFinalRows(final_rows);
    return;
  }
  if (timeout_us <= 0) timeout_us = SessionSpec{}.retransmit_timeout_us;
  if (max_retransmits < 0) max_retransmits = SessionSpec{}.max_retransmits;
  // The link owns failure handling; this is already the failure path,
  // and a notification that cannot leave at all surfaces at the
  // initiator as the session timeout it was about to declare anyway.
  IgnoreStatus(link_.Send(Message{id_, initiator, std::move(final_rows)},
                          timeout_us, max_retransmits,
                          "failure notification", initiator));
}

Result<const SessionResult*> PeerNode::GetResult(SessionId session) const {
  auto it = initiator_sessions_.find(session);
  if (it == initiator_sessions_.end()) {
    return Status::NotFound("no session " + std::to_string(session) +
                            " started at this peer");
  }
  return &it->second.result;
}

Result<SessionResult> PeerNode::TakeResult(SessionId session) {
  auto it = initiator_sessions_.find(session);
  if (it == initiator_sessions_.end()) {
    return Status::NotFound("no session " + std::to_string(session) +
                            " started at this peer");
  }
  SessionResult result = std::move(it->second.result);
  initiator_sessions_.erase(it);
  return result;
}

}  // namespace hyperion
