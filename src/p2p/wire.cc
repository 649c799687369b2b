#include "p2p/wire.h"

#include <cstring>
#include <set>
#include <utility>
#include <vector>

#include "core/domain.h"

namespace hyperion {
namespace wire {

namespace {

// ---- encoding primitives -------------------------------------------------

void PutU8(uint8_t v, std::string* out) {
  out->push_back(static_cast<char>(v));
}

void PutU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutI64(int64_t v, std::string* out) {
  PutU64(static_cast<uint64_t>(v), out);
}

void PutString(std::string_view s, std::string* out) {
  PutU32(static_cast<uint32_t>(s.size()), out);
  out->append(s);
}

void PutStrings(const std::vector<std::string>& v, std::string* out) {
  PutU32(static_cast<uint32_t>(v.size()), out);
  for (const std::string& s : v) PutString(s, out);
}

void PutValue(const Value& v, std::string* out) {
  if (v.is_string()) {
    PutU8(0, out);
    PutString(v.AsString(), out);
  } else {
    PutU8(1, out);
    PutI64(v.AsInt(), out);
  }
}

void PutDomain(const Domain& d, std::string* out) {
  switch (d.kind()) {
    case Domain::Kind::kAllStrings:
      PutU8(0, out);
      PutString(d.name(), out);
      return;
    case Domain::Kind::kAllInts:
      PutU8(1, out);
      PutString(d.name(), out);
      return;
    case Domain::Kind::kEnumerated:
      PutU8(2, out);
      PutString(d.name(), out);
      PutU32(static_cast<uint32_t>(d.values().size()), out);
      for (const Value& v : d.values()) PutValue(v, out);
      return;
  }
}

void PutSchema(const Schema& s, std::string* out) {
  PutU32(static_cast<uint32_t>(s.arity()), out);
  for (const Attribute& a : s.attrs()) {
    PutString(a.name(), out);
    PutDomain(*a.domain(), out);
  }
}

void PutCell(const Cell& c, std::string* out) {
  if (c.is_constant()) {
    PutU8(0, out);
    PutValue(c.value(), out);
  } else {
    PutU8(1, out);
    PutU32(c.var(), out);
    PutU32(static_cast<uint32_t>(c.exclusions().size()), out);
    for (const Value& v : c.exclusions()) PutValue(v, out);
  }
}

void PutMapping(const Mapping& m, std::string* out) {
  PutU32(static_cast<uint32_t>(m.arity()), out);
  for (const Cell& c : m.cells()) PutCell(c, out);
}

void PutMappings(const std::vector<Mapping>& rows, std::string* out) {
  PutU32(static_cast<uint32_t>(rows.size()), out);
  for (const Mapping& m : rows) PutMapping(m, out);
}

void PutTuple(const Tuple& t, std::string* out) {
  PutU32(static_cast<uint32_t>(t.size()), out);
  for (const Value& v : t) PutValue(v, out);
}

void PutValueFilter(const ValueFilter& f, std::string* out) {
  PutU8(f.pass_all ? 1 : 0, out);
  if (f.pass_all) return;
  const std::vector<bool>& bits = f.bloom.bit_vector();
  PutU32(static_cast<uint32_t>(bits.size()), out);
  uint8_t byte = 0;
  for (size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) byte |= static_cast<uint8_t>(1u << (i % 8));
    if (i % 8 == 7 || i + 1 == bits.size()) {
      PutU8(byte, out);
      byte = 0;
    }
  }
}

void PutSpec(const SessionSpec& spec, std::string* out) {
  PutU64(spec.id, out);
  PutStrings(spec.path_peers, out);
  PutStrings(spec.x_names, out);
  PutStrings(spec.y_names, out);
  PutU64(spec.cache_capacity, out);
  PutU64(spec.materialize_limit, out);
  PutU64(spec.max_result_rows, out);
  PutU8(spec.semijoin_filters ? 1 : 0, out);
  PutI64(spec.retransmit_timeout_us, out);
  PutU32(static_cast<uint32_t>(spec.max_retransmits), out);
}

void PutSummary(const PartitionSummary& p, std::string* out) {
  PutU32(static_cast<uint32_t>(p.members.size()), out);
  for (const PartitionMemberRef& m : p.members) {
    PutU64(m.hop, out);
    PutString(m.table_name, out);
    PutStrings(m.attr_names, out);
  }
  PutStrings(p.attr_names, out);
  PutU64(p.first_hop, out);
  PutU64(p.last_hop, out);
}

void PutSummaries(const std::vector<PartitionSummary>& ps, std::string* out) {
  PutU32(static_cast<uint32_t>(ps.size()), out);
  for (const PartitionSummary& p : ps) PutSummary(p, out);
}

// Shared by the WriteSlice payload (tag 12) and the slice vector nested
// in HandoffRows (tag 16) — one encoding, decoded by one reader.
void PutWriteSlice(const WriteSliceMsg& ws, std::string* out) {
  PutU64(ws.request_id, out);
  PutString(ws.origin, out);
  PutString(ws.table_name, out);
  PutU64(ws.shard, out);
  PutU64(ws.shard_version, out);
  PutU64(ws.committed_floor, out);
  PutU64(ws.table_version, out);
  PutU64(ws.total_rows, out);
  PutSchema(ws.x_schema, out);
  PutSchema(ws.y_schema, out);
  PutU32(static_cast<uint32_t>(ws.row_indices.size()), out);
  for (uint64_t index : ws.row_indices) PutU64(index, out);
  PutMappings(ws.rows, out);
  PutU8(ws.repair, out);
  PutString(ws.error, out);
  PutU32(static_cast<uint32_t>(ws.error_code), out);
  PutU64(ws.ring_epoch, out);
}

// ---- decoding primitives -------------------------------------------------

// Bounds-checked cursor over the input; every Read* fails loudly on
// truncation instead of reading past the end.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }

  Status ReadU8(uint8_t* out) {
    if (remaining() < 1) return Truncated("u8");
    *out = static_cast<uint8_t>(data_[pos_++]);
    return Status::OK();
  }

  Status ReadU32(uint32_t* out) {
    if (remaining() < 4) return Truncated("u32");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    *out = v;
    return Status::OK();
  }

  Status ReadU64(uint64_t* out) {
    if (remaining() < 8) return Truncated("u64");
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    *out = v;
    return Status::OK();
  }

  Status ReadI64(int64_t* out) {
    uint64_t v = 0;
    HYP_RETURN_IF_ERROR(ReadU64(&v));
    *out = static_cast<int64_t>(v);
    return Status::OK();
  }

  Status ReadString(std::string* out) {
    uint32_t len = 0;
    HYP_RETURN_IF_ERROR(ReadU32(&len));
    if (remaining() < len) return Truncated("string body");
    out->assign(data_.substr(pos_, len));
    pos_ += len;
    return Status::OK();
  }

  // Reads a count that prefixes `min_element_bytes`-sized elements,
  // rejecting counts the remaining input could not possibly hold.
  Status ReadCount(size_t min_element_bytes, uint32_t* out) {
    HYP_RETURN_IF_ERROR(ReadU32(out));
    if (min_element_bytes > 0 &&
        static_cast<uint64_t>(*out) * min_element_bytes > remaining()) {
      return Status::InvalidArgument(
          "wire: declared count exceeds remaining bytes");
    }
    return Status::OK();
  }

 private:
  Status Truncated(const char* what) const {
    return Status::InvalidArgument(std::string("wire: truncated input at ") +
                                   what);
  }

  std::string_view data_;
  size_t pos_ = 0;
};

Status ReadStrings(Reader* r, std::vector<std::string>* out) {
  uint32_t n = 0;
  HYP_RETURN_IF_ERROR(r->ReadCount(4, &n));
  out->clear();
  out->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    std::string s;
    HYP_RETURN_IF_ERROR(r->ReadString(&s));
    out->push_back(std::move(s));
  }
  return Status::OK();
}

Status ReadValue(Reader* r, Value* out) {
  uint8_t tag = 0;
  HYP_RETURN_IF_ERROR(r->ReadU8(&tag));
  if (tag == 0) {
    std::string s;
    HYP_RETURN_IF_ERROR(r->ReadString(&s));
    *out = Value(std::move(s));
    return Status::OK();
  }
  if (tag == 1) {
    int64_t i = 0;
    HYP_RETURN_IF_ERROR(r->ReadI64(&i));
    *out = Value(i);
    return Status::OK();
  }
  return Status::InvalidArgument("wire: unknown value tag");
}

Status ReadDomain(Reader* r, DomainPtr* out) {
  uint8_t kind = 0;
  HYP_RETURN_IF_ERROR(r->ReadU8(&kind));
  std::string name;
  HYP_RETURN_IF_ERROR(r->ReadString(&name));
  switch (kind) {
    case 0:
      *out = Domain::AllStrings(std::move(name));
      return Status::OK();
    case 1:
      *out = Domain::AllInts(std::move(name));
      return Status::OK();
    case 2: {
      uint32_t n = 0;
      HYP_RETURN_IF_ERROR(r->ReadCount(1, &n));
      if (n == 0) {
        return Status::InvalidArgument("wire: empty enumerated domain");
      }
      std::vector<Value> values;
      values.reserve(n);
      ValueType type = ValueType::kString;
      for (uint32_t i = 0; i < n; ++i) {
        Value v;
        HYP_RETURN_IF_ERROR(ReadValue(r, &v));
        if (i == 0) {
          type = v.type();
        } else if (v.type() != type) {
          return Status::InvalidArgument(
              "wire: enumerated domain mixes value types");
        }
        values.push_back(std::move(v));
      }
      *out = Domain::Enumerated(std::move(name), std::move(values));
      return Status::OK();
    }
    default:
      return Status::InvalidArgument("wire: unknown domain kind");
  }
}

Status ReadSchema(Reader* r, Schema* out) {
  uint32_t n = 0;
  HYP_RETURN_IF_ERROR(r->ReadCount(6, &n));
  std::vector<Attribute> attrs;
  attrs.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    std::string name;
    HYP_RETURN_IF_ERROR(r->ReadString(&name));
    DomainPtr domain;
    HYP_RETURN_IF_ERROR(ReadDomain(r, &domain));
    attrs.emplace_back(std::move(name), std::move(domain));
  }
  *out = Schema(std::move(attrs));
  return Status::OK();
}

Status ReadCell(Reader* r, Cell* out) {
  uint8_t tag = 0;
  HYP_RETURN_IF_ERROR(r->ReadU8(&tag));
  if (tag == 0) {
    Value v;
    HYP_RETURN_IF_ERROR(ReadValue(r, &v));
    *out = Cell::Constant(std::move(v));
    return Status::OK();
  }
  if (tag == 1) {
    uint32_t var = 0;
    HYP_RETURN_IF_ERROR(r->ReadU32(&var));
    uint32_t n = 0;
    HYP_RETURN_IF_ERROR(r->ReadCount(1, &n));
    std::set<Value> exclusions;
    for (uint32_t i = 0; i < n; ++i) {
      Value v;
      HYP_RETURN_IF_ERROR(ReadValue(r, &v));
      exclusions.insert(std::move(v));
    }
    *out = Cell::Variable(var, std::move(exclusions));
    return Status::OK();
  }
  return Status::InvalidArgument("wire: unknown cell tag");
}

Status ReadMapping(Reader* r, Mapping* out) {
  uint32_t n = 0;
  HYP_RETURN_IF_ERROR(r->ReadCount(2, &n));
  std::vector<Cell> cells;
  cells.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Cell c = Cell::Constant(Value());
    HYP_RETURN_IF_ERROR(ReadCell(r, &c));
    cells.push_back(std::move(c));
  }
  *out = Mapping(std::move(cells));
  return Status::OK();
}

Status ReadMappings(Reader* r, std::vector<Mapping>* out) {
  uint32_t n = 0;
  HYP_RETURN_IF_ERROR(r->ReadCount(4, &n));
  out->clear();
  out->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Mapping m;
    HYP_RETURN_IF_ERROR(ReadMapping(r, &m));
    out->push_back(std::move(m));
  }
  return Status::OK();
}

Status ReadTuple(Reader* r, Tuple* out) {
  uint32_t n = 0;
  HYP_RETURN_IF_ERROR(r->ReadCount(2, &n));
  out->clear();
  out->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Value v;
    HYP_RETURN_IF_ERROR(ReadValue(r, &v));
    out->push_back(std::move(v));
  }
  return Status::OK();
}

Status ReadValueFilter(Reader* r, ValueFilter* out) {
  uint8_t pass_all = 0;
  HYP_RETURN_IF_ERROR(r->ReadU8(&pass_all));
  out->pass_all = pass_all != 0;
  if (out->pass_all) {
    out->bloom = BloomFilter();
    return Status::OK();
  }
  uint32_t nbits = 0;
  HYP_RETURN_IF_ERROR(r->ReadU32(&nbits));
  size_t nbytes = (nbits + 7) / 8;
  if (r->remaining() < nbytes) {
    return Status::InvalidArgument("wire: truncated bloom filter");
  }
  std::vector<bool> bits(nbits, false);
  uint8_t byte = 0;
  for (uint32_t i = 0; i < nbits; ++i) {
    if (i % 8 == 0) HYP_RETURN_IF_ERROR(r->ReadU8(&byte));
    bits[i] = (byte >> (i % 8)) & 1;
  }
  out->bloom = BloomFilter::FromBits(std::move(bits));
  return Status::OK();
}

Status ReadSpec(Reader* r, SessionSpec* out) {
  HYP_RETURN_IF_ERROR(r->ReadU64(&out->id));
  HYP_RETURN_IF_ERROR(ReadStrings(r, &out->path_peers));
  HYP_RETURN_IF_ERROR(ReadStrings(r, &out->x_names));
  HYP_RETURN_IF_ERROR(ReadStrings(r, &out->y_names));
  uint64_t u = 0;
  HYP_RETURN_IF_ERROR(r->ReadU64(&u));
  out->cache_capacity = static_cast<size_t>(u);
  HYP_RETURN_IF_ERROR(r->ReadU64(&u));
  out->materialize_limit = static_cast<size_t>(u);
  HYP_RETURN_IF_ERROR(r->ReadU64(&u));
  out->max_result_rows = static_cast<size_t>(u);
  uint8_t semijoin = 0;
  HYP_RETURN_IF_ERROR(r->ReadU8(&semijoin));
  out->semijoin_filters = semijoin != 0;
  HYP_RETURN_IF_ERROR(r->ReadI64(&out->retransmit_timeout_us));
  uint32_t retries = 0;
  HYP_RETURN_IF_ERROR(r->ReadU32(&retries));
  out->max_retransmits = static_cast<int>(retries);
  return Status::OK();
}

Status ReadSummary(Reader* r, PartitionSummary* out) {
  uint32_t n = 0;
  HYP_RETURN_IF_ERROR(r->ReadCount(16, &n));
  out->members.clear();
  out->members.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    PartitionMemberRef m;
    uint64_t hop = 0;
    HYP_RETURN_IF_ERROR(r->ReadU64(&hop));
    m.hop = static_cast<size_t>(hop);
    HYP_RETURN_IF_ERROR(r->ReadString(&m.table_name));
    HYP_RETURN_IF_ERROR(ReadStrings(r, &m.attr_names));
    out->members.push_back(std::move(m));
  }
  HYP_RETURN_IF_ERROR(ReadStrings(r, &out->attr_names));
  uint64_t hop = 0;
  HYP_RETURN_IF_ERROR(r->ReadU64(&hop));
  out->first_hop = static_cast<size_t>(hop);
  HYP_RETURN_IF_ERROR(r->ReadU64(&hop));
  out->last_hop = static_cast<size_t>(hop);
  return Status::OK();
}

Status ReadSummaries(Reader* r, std::vector<PartitionSummary>* out) {
  uint32_t n = 0;
  HYP_RETURN_IF_ERROR(r->ReadCount(24, &n));
  out->clear();
  out->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    PartitionSummary p;
    HYP_RETURN_IF_ERROR(ReadSummary(r, &p));
    out->push_back(std::move(p));
  }
  return Status::OK();
}

Status ReadWriteSlice(Reader* r, WriteSliceMsg* ws) {
  HYP_RETURN_IF_ERROR(r->ReadU64(&ws->request_id));
  HYP_RETURN_IF_ERROR(r->ReadString(&ws->origin));
  HYP_RETURN_IF_ERROR(r->ReadString(&ws->table_name));
  HYP_RETURN_IF_ERROR(r->ReadU64(&ws->shard));
  HYP_RETURN_IF_ERROR(r->ReadU64(&ws->shard_version));
  HYP_RETURN_IF_ERROR(r->ReadU64(&ws->committed_floor));
  HYP_RETURN_IF_ERROR(r->ReadU64(&ws->table_version));
  HYP_RETURN_IF_ERROR(r->ReadU64(&ws->total_rows));
  HYP_RETURN_IF_ERROR(ReadSchema(r, &ws->x_schema));
  HYP_RETURN_IF_ERROR(ReadSchema(r, &ws->y_schema));
  uint32_t n = 0;
  HYP_RETURN_IF_ERROR(r->ReadCount(8, &n));
  ws->row_indices.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t index = 0;
    HYP_RETURN_IF_ERROR(r->ReadU64(&index));
    ws->row_indices.push_back(index);
  }
  HYP_RETURN_IF_ERROR(ReadMappings(r, &ws->rows));
  if (ws->rows.size() != ws->row_indices.size()) {
    return Status::InvalidArgument(
        "wire: write slice index/row counts disagree");
  }
  HYP_RETURN_IF_ERROR(r->ReadU8(&ws->repair));
  HYP_RETURN_IF_ERROR(r->ReadString(&ws->error));
  uint32_t code = 0;
  HYP_RETURN_IF_ERROR(r->ReadU32(&code));
  ws->error_code = static_cast<int32_t>(code);
  HYP_RETURN_IF_ERROR(r->ReadU64(&ws->ring_epoch));
  return Status::OK();
}

// ---- per-payload encode/decode -------------------------------------------

void EncodePayload(const Message& msg, std::string* out) {
  if (const auto* ping = std::get_if<PingMsg>(&msg.payload)) {
    PutU64(ping->ping_id, out);
    PutString(ping->origin, out);
    PutU32(static_cast<uint32_t>(ping->ttl), out);
    PutU32(static_cast<uint32_t>(ping->hops), out);
  } else if (const auto* pong = std::get_if<PongMsg>(&msg.payload)) {
    PutU64(pong->ping_id, out);
    PutString(pong->responder, out);
    PutU32(static_cast<uint32_t>(pong->hops), out);
  } else if (const auto* init = std::get_if<SessionInitMsg>(&msg.payload)) {
    PutSpec(init->spec, out);
    PutSummaries(init->partitions, out);
    PutU32(static_cast<uint32_t>(init->forward_filters.size()), out);
    for (const auto& [attr, filter] : init->forward_filters) {
      PutString(attr, out);
      PutValueFilter(filter, out);
    }
    PutU64(init->seq, out);
  } else if (const auto* plan = std::get_if<ComputePlanMsg>(&msg.payload)) {
    PutSpec(plan->spec, out);
    PutSummaries(plan->partitions, out);
    PutU64(plan->seq, out);
  } else if (const auto* batch = std::get_if<CoverBatchMsg>(&msg.payload)) {
    PutU64(batch->session, out);
    PutU64(batch->partition, out);
    PutSchema(batch->schema, out);
    PutMappings(batch->rows, out);
    PutU8(batch->eos ? 1 : 0, out);
    PutU64(batch->seq, out);
  } else if (const auto* fin = std::get_if<FinalRowsMsg>(&msg.payload)) {
    PutU64(fin->session, out);
    PutU64(fin->partition, out);
    PutSchema(fin->schema, out);
    PutMappings(fin->rows, out);
    PutU8(fin->eos ? 1 : 0, out);
    PutU8(fin->satisfiable ? 1 : 0, out);
    PutString(fin->error, out);
    PutU32(static_cast<uint32_t>(fin->error_code), out);
    PutU64(fin->seq, out);
  } else if (const auto* search = std::get_if<SearchMsg>(&msg.payload)) {
    PutU64(search->search_id, out);
    PutString(search->origin, out);
    PutU32(static_cast<uint32_t>(search->ttl), out);
    PutStrings(search->query.attrs, out);
    PutU32(static_cast<uint32_t>(search->query.keys.size()), out);
    for (const Tuple& t : search->query.keys) PutTuple(t, out);
    PutU8(search->complete ? 1 : 0, out);
  } else if (const auto* hit = std::get_if<SearchHitMsg>(&msg.payload)) {
    PutU64(hit->search_id, out);
    PutString(hit->responder, out);
    PutSchema(hit->schema, out);
    PutU32(static_cast<uint32_t>(hit->tuples.size()), out);
    for (const Tuple& t : hit->tuples) PutTuple(t, out);
    PutU8(hit->complete ? 1 : 0, out);
  } else if (const auto* ack = std::get_if<AckMsg>(&msg.payload)) {
    PutU64(ack->session, out);
    PutU8(ack->kind, out);
    PutU64(ack->partition, out);
    PutU64(ack->seq, out);
    PutU64(ack->next_expected, out);
    PutU8(static_cast<uint8_t>(ack->type), out);
  } else if (const auto* hb = std::get_if<HeartbeatMsg>(&msg.payload)) {
    PutString(hb->node, out);
    PutU8(hb->role, out);
    PutString(hb->listen_addr, out);
    PutU64(hb->incarnation, out);
    PutU64(hb->beat, out);
    PutU32(static_cast<uint32_t>(hb->shards.size()), out);
    for (size_t i = 0; i < hb->shards.size(); ++i) {
      PutU64(hb->shards[i], out);
      PutU64(i < hb->shard_versions.size() ? hb->shard_versions[i] : 0, out);
    }
    PutU64(hb->ring_epoch, out);
    PutStrings(hb->ring_nodes, out);
    PutU64(hb->pending_epoch, out);
    PutStrings(hb->pending_nodes, out);
    PutStrings(hb->peer_nodes, out);
    PutStrings(hb->peer_addrs, out);
  } else if (const auto* fetch = std::get_if<ShardFetchMsg>(&msg.payload)) {
    PutU64(fetch->request_id, out);
    PutString(fetch->table_name, out);
    PutU64(fetch->shard, out);
    PutU64(fetch->ring_epoch, out);
  } else if (const auto* slice = std::get_if<ShardRowsMsg>(&msg.payload)) {
    PutU64(slice->request_id, out);
    PutString(slice->table_name, out);
    PutString(slice->node, out);
    PutU64(slice->shard, out);
    PutU64(slice->version, out);
    PutU64(slice->total_rows, out);
    PutSchema(slice->x_schema, out);
    PutSchema(slice->y_schema, out);
    PutU32(static_cast<uint32_t>(slice->row_indices.size()), out);
    for (uint64_t index : slice->row_indices) PutU64(index, out);
    PutMappings(slice->rows, out);
    PutString(slice->error, out);
    PutU32(static_cast<uint32_t>(slice->error_code), out);
    PutU64(slice->ring_epoch, out);
  } else if (const auto* ws = std::get_if<WriteSliceMsg>(&msg.payload)) {
    PutWriteSlice(*ws, out);
  } else if (const auto* wa = std::get_if<WriteAckMsg>(&msg.payload)) {
    PutU64(wa->request_id, out);
    PutString(wa->node, out);
    PutU64(wa->shard, out);
    PutU8(wa->applied, out);
    PutU64(wa->shard_version, out);
    PutString(wa->error, out);
    PutU32(static_cast<uint32_t>(wa->error_code), out);
    PutU64(wa->ring_epoch, out);
  } else if (const auto* rf = std::get_if<RepairFetchMsg>(&msg.payload)) {
    PutU64(rf->request_id, out);
    PutString(rf->node, out);
    PutU64(rf->shard, out);
    PutU64(rf->from_version, out);
  } else if (const auto* hf = std::get_if<HandoffFetchMsg>(&msg.payload)) {
    PutU64(hf->request_id, out);
    PutString(hf->node, out);
    PutU64(hf->shard, out);
    PutU64(hf->ring_epoch, out);
  } else if (const auto* hr = std::get_if<HandoffRowsMsg>(&msg.payload)) {
    PutU64(hr->request_id, out);
    PutString(hr->node, out);
    PutU64(hr->shard, out);
    PutU64(hr->shard_version, out);
    PutU32(static_cast<uint32_t>(hr->slices.size()), out);
    for (const WriteSliceMsg& slice : hr->slices) PutWriteSlice(slice, out);
    PutString(hr->error, out);
    PutU32(static_cast<uint32_t>(hr->error_code), out);
  } else if (const auto* ha = std::get_if<HandoffAckMsg>(&msg.payload)) {
    PutU64(ha->request_id, out);
    PutString(ha->node, out);
    PutU64(ha->shard, out);
    PutU64(ha->shard_version, out);
    PutU64(ha->rows, out);
    PutU64(ha->ring_epoch, out);
  } else if (const auto* probe = std::get_if<ProbeMsg>(&msg.payload)) {
    PutU64(probe->session, out);
    PutU8(probe->kind, out);
    PutU64(probe->partition, out);
    PutU64(probe->seq, out);
  }
}

Status DecodePayload(uint8_t tag, Reader* r, Message* msg) {
  switch (tag) {
    case 0: {
      PingMsg ping;
      HYP_RETURN_IF_ERROR(r->ReadU64(&ping.ping_id));
      HYP_RETURN_IF_ERROR(r->ReadString(&ping.origin));
      uint32_t u = 0;
      HYP_RETURN_IF_ERROR(r->ReadU32(&u));
      ping.ttl = static_cast<int>(u);
      HYP_RETURN_IF_ERROR(r->ReadU32(&u));
      ping.hops = static_cast<int>(u);
      msg->payload = std::move(ping);
      return Status::OK();
    }
    case 1: {
      PongMsg pong;
      HYP_RETURN_IF_ERROR(r->ReadU64(&pong.ping_id));
      HYP_RETURN_IF_ERROR(r->ReadString(&pong.responder));
      uint32_t u = 0;
      HYP_RETURN_IF_ERROR(r->ReadU32(&u));
      pong.hops = static_cast<int>(u);
      msg->payload = std::move(pong);
      return Status::OK();
    }
    case 2: {
      SessionInitMsg init;
      HYP_RETURN_IF_ERROR(ReadSpec(r, &init.spec));
      HYP_RETURN_IF_ERROR(ReadSummaries(r, &init.partitions));
      uint32_t n = 0;
      HYP_RETURN_IF_ERROR(r->ReadCount(5, &n));
      for (uint32_t i = 0; i < n; ++i) {
        std::string attr;
        HYP_RETURN_IF_ERROR(r->ReadString(&attr));
        ValueFilter filter;
        HYP_RETURN_IF_ERROR(ReadValueFilter(r, &filter));
        init.forward_filters.emplace(std::move(attr), std::move(filter));
      }
      HYP_RETURN_IF_ERROR(r->ReadU64(&init.seq));
      msg->payload = std::move(init);
      return Status::OK();
    }
    case 3: {
      ComputePlanMsg plan;
      HYP_RETURN_IF_ERROR(ReadSpec(r, &plan.spec));
      HYP_RETURN_IF_ERROR(ReadSummaries(r, &plan.partitions));
      HYP_RETURN_IF_ERROR(r->ReadU64(&plan.seq));
      msg->payload = std::move(plan);
      return Status::OK();
    }
    case 4: {
      CoverBatchMsg batch;
      HYP_RETURN_IF_ERROR(r->ReadU64(&batch.session));
      uint64_t partition = 0;
      HYP_RETURN_IF_ERROR(r->ReadU64(&partition));
      batch.partition = static_cast<size_t>(partition);
      HYP_RETURN_IF_ERROR(ReadSchema(r, &batch.schema));
      HYP_RETURN_IF_ERROR(ReadMappings(r, &batch.rows));
      uint8_t eos = 0;
      HYP_RETURN_IF_ERROR(r->ReadU8(&eos));
      batch.eos = eos != 0;
      HYP_RETURN_IF_ERROR(r->ReadU64(&batch.seq));
      msg->payload = std::move(batch);
      return Status::OK();
    }
    case 5: {
      FinalRowsMsg fin;
      HYP_RETURN_IF_ERROR(r->ReadU64(&fin.session));
      uint64_t partition = 0;
      HYP_RETURN_IF_ERROR(r->ReadU64(&partition));
      fin.partition = static_cast<size_t>(partition);
      HYP_RETURN_IF_ERROR(ReadSchema(r, &fin.schema));
      HYP_RETURN_IF_ERROR(ReadMappings(r, &fin.rows));
      uint8_t b = 0;
      HYP_RETURN_IF_ERROR(r->ReadU8(&b));
      fin.eos = b != 0;
      HYP_RETURN_IF_ERROR(r->ReadU8(&b));
      fin.satisfiable = b != 0;
      HYP_RETURN_IF_ERROR(r->ReadString(&fin.error));
      uint32_t code = 0;
      HYP_RETURN_IF_ERROR(r->ReadU32(&code));
      fin.error_code = static_cast<int32_t>(code);
      HYP_RETURN_IF_ERROR(r->ReadU64(&fin.seq));
      msg->payload = std::move(fin);
      return Status::OK();
    }
    case 6: {
      SearchMsg search;
      HYP_RETURN_IF_ERROR(r->ReadU64(&search.search_id));
      HYP_RETURN_IF_ERROR(r->ReadString(&search.origin));
      uint32_t u = 0;
      HYP_RETURN_IF_ERROR(r->ReadU32(&u));
      search.ttl = static_cast<int>(u);
      HYP_RETURN_IF_ERROR(ReadStrings(r, &search.query.attrs));
      uint32_t n = 0;
      HYP_RETURN_IF_ERROR(r->ReadCount(4, &n));
      search.query.keys.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        Tuple t;
        HYP_RETURN_IF_ERROR(ReadTuple(r, &t));
        search.query.keys.push_back(std::move(t));
      }
      uint8_t complete = 0;
      HYP_RETURN_IF_ERROR(r->ReadU8(&complete));
      search.complete = complete != 0;
      msg->payload = std::move(search);
      return Status::OK();
    }
    case 7: {
      SearchHitMsg hit;
      HYP_RETURN_IF_ERROR(r->ReadU64(&hit.search_id));
      HYP_RETURN_IF_ERROR(r->ReadString(&hit.responder));
      HYP_RETURN_IF_ERROR(ReadSchema(r, &hit.schema));
      uint32_t n = 0;
      HYP_RETURN_IF_ERROR(r->ReadCount(4, &n));
      hit.tuples.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        Tuple t;
        HYP_RETURN_IF_ERROR(ReadTuple(r, &t));
        hit.tuples.push_back(std::move(t));
      }
      uint8_t complete = 0;
      HYP_RETURN_IF_ERROR(r->ReadU8(&complete));
      hit.complete = complete != 0;
      msg->payload = std::move(hit);
      return Status::OK();
    }
    case 8: {
      AckMsg ack;
      HYP_RETURN_IF_ERROR(r->ReadU64(&ack.session));
      HYP_RETURN_IF_ERROR(r->ReadU8(&ack.kind));
      HYP_RETURN_IF_ERROR(r->ReadU64(&ack.partition));
      HYP_RETURN_IF_ERROR(r->ReadU64(&ack.seq));
      HYP_RETURN_IF_ERROR(r->ReadU64(&ack.next_expected));
      uint8_t type = 0;
      HYP_RETURN_IF_ERROR(r->ReadU8(&type));
      if (type > static_cast<uint8_t>(AckType::kProbeMissing)) {
        return Status::InvalidArgument("wire: unknown ack type");
      }
      ack.type = static_cast<AckType>(type);
      msg->payload = std::move(ack);
      return Status::OK();
    }
    case 9: {
      HeartbeatMsg hb;
      HYP_RETURN_IF_ERROR(r->ReadString(&hb.node));
      HYP_RETURN_IF_ERROR(r->ReadU8(&hb.role));
      HYP_RETURN_IF_ERROR(r->ReadString(&hb.listen_addr));
      HYP_RETURN_IF_ERROR(r->ReadU64(&hb.incarnation));
      HYP_RETURN_IF_ERROR(r->ReadU64(&hb.beat));
      uint32_t n = 0;
      HYP_RETURN_IF_ERROR(r->ReadCount(16, &n));
      hb.shards.reserve(n);
      hb.shard_versions.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        uint64_t shard = 0;
        uint64_t version = 0;
        HYP_RETURN_IF_ERROR(r->ReadU64(&shard));
        HYP_RETURN_IF_ERROR(r->ReadU64(&version));
        hb.shards.push_back(shard);
        hb.shard_versions.push_back(version);
      }
      HYP_RETURN_IF_ERROR(r->ReadU64(&hb.ring_epoch));
      HYP_RETURN_IF_ERROR(ReadStrings(r, &hb.ring_nodes));
      HYP_RETURN_IF_ERROR(r->ReadU64(&hb.pending_epoch));
      HYP_RETURN_IF_ERROR(ReadStrings(r, &hb.pending_nodes));
      HYP_RETURN_IF_ERROR(ReadStrings(r, &hb.peer_nodes));
      HYP_RETURN_IF_ERROR(ReadStrings(r, &hb.peer_addrs));
      msg->payload = std::move(hb);
      return Status::OK();
    }
    case 10: {
      ShardFetchMsg fetch;
      HYP_RETURN_IF_ERROR(r->ReadU64(&fetch.request_id));
      HYP_RETURN_IF_ERROR(r->ReadString(&fetch.table_name));
      HYP_RETURN_IF_ERROR(r->ReadU64(&fetch.shard));
      HYP_RETURN_IF_ERROR(r->ReadU64(&fetch.ring_epoch));
      msg->payload = std::move(fetch);
      return Status::OK();
    }
    case 11: {
      ShardRowsMsg slice;
      HYP_RETURN_IF_ERROR(r->ReadU64(&slice.request_id));
      HYP_RETURN_IF_ERROR(r->ReadString(&slice.table_name));
      HYP_RETURN_IF_ERROR(r->ReadString(&slice.node));
      HYP_RETURN_IF_ERROR(r->ReadU64(&slice.shard));
      HYP_RETURN_IF_ERROR(r->ReadU64(&slice.version));
      HYP_RETURN_IF_ERROR(r->ReadU64(&slice.total_rows));
      HYP_RETURN_IF_ERROR(ReadSchema(r, &slice.x_schema));
      HYP_RETURN_IF_ERROR(ReadSchema(r, &slice.y_schema));
      uint32_t n = 0;
      HYP_RETURN_IF_ERROR(r->ReadCount(8, &n));
      slice.row_indices.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        uint64_t index = 0;
        HYP_RETURN_IF_ERROR(r->ReadU64(&index));
        slice.row_indices.push_back(index);
      }
      HYP_RETURN_IF_ERROR(ReadMappings(r, &slice.rows));
      if (slice.rows.size() != slice.row_indices.size()) {
        return Status::InvalidArgument(
            "wire: shard slice index/row counts disagree");
      }
      HYP_RETURN_IF_ERROR(r->ReadString(&slice.error));
      uint32_t code = 0;
      HYP_RETURN_IF_ERROR(r->ReadU32(&code));
      slice.error_code = static_cast<int32_t>(code);
      HYP_RETURN_IF_ERROR(r->ReadU64(&slice.ring_epoch));
      msg->payload = std::move(slice);
      return Status::OK();
    }
    case 12: {
      WriteSliceMsg ws;
      HYP_RETURN_IF_ERROR(ReadWriteSlice(r, &ws));
      msg->payload = std::move(ws);
      return Status::OK();
    }
    case 13: {
      WriteAckMsg wa;
      HYP_RETURN_IF_ERROR(r->ReadU64(&wa.request_id));
      HYP_RETURN_IF_ERROR(r->ReadString(&wa.node));
      HYP_RETURN_IF_ERROR(r->ReadU64(&wa.shard));
      HYP_RETURN_IF_ERROR(r->ReadU8(&wa.applied));
      HYP_RETURN_IF_ERROR(r->ReadU64(&wa.shard_version));
      HYP_RETURN_IF_ERROR(r->ReadString(&wa.error));
      uint32_t code = 0;
      HYP_RETURN_IF_ERROR(r->ReadU32(&code));
      wa.error_code = static_cast<int32_t>(code);
      HYP_RETURN_IF_ERROR(r->ReadU64(&wa.ring_epoch));
      msg->payload = std::move(wa);
      return Status::OK();
    }
    case 14: {
      RepairFetchMsg rf;
      HYP_RETURN_IF_ERROR(r->ReadU64(&rf.request_id));
      HYP_RETURN_IF_ERROR(r->ReadString(&rf.node));
      HYP_RETURN_IF_ERROR(r->ReadU64(&rf.shard));
      HYP_RETURN_IF_ERROR(r->ReadU64(&rf.from_version));
      msg->payload = std::move(rf);
      return Status::OK();
    }
    case 15: {
      HandoffFetchMsg hf;
      HYP_RETURN_IF_ERROR(r->ReadU64(&hf.request_id));
      HYP_RETURN_IF_ERROR(r->ReadString(&hf.node));
      HYP_RETURN_IF_ERROR(r->ReadU64(&hf.shard));
      HYP_RETURN_IF_ERROR(r->ReadU64(&hf.ring_epoch));
      msg->payload = std::move(hf);
      return Status::OK();
    }
    case 16: {
      HandoffRowsMsg hr;
      HYP_RETURN_IF_ERROR(r->ReadU64(&hr.request_id));
      HYP_RETURN_IF_ERROR(r->ReadString(&hr.node));
      HYP_RETURN_IF_ERROR(r->ReadU64(&hr.shard));
      HYP_RETURN_IF_ERROR(r->ReadU64(&hr.shard_version));
      uint32_t n = 0;
      // A slice is at minimum its fixed-width fields plus empty schemas
      // and strings — comfortably more than 64 bytes on the wire.
      HYP_RETURN_IF_ERROR(r->ReadCount(64, &n));
      hr.slices.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        WriteSliceMsg ws;
        HYP_RETURN_IF_ERROR(ReadWriteSlice(r, &ws));
        hr.slices.push_back(std::move(ws));
      }
      HYP_RETURN_IF_ERROR(r->ReadString(&hr.error));
      uint32_t code = 0;
      HYP_RETURN_IF_ERROR(r->ReadU32(&code));
      hr.error_code = static_cast<int32_t>(code);
      msg->payload = std::move(hr);
      return Status::OK();
    }
    case 17: {
      HandoffAckMsg ha;
      HYP_RETURN_IF_ERROR(r->ReadU64(&ha.request_id));
      HYP_RETURN_IF_ERROR(r->ReadString(&ha.node));
      HYP_RETURN_IF_ERROR(r->ReadU64(&ha.shard));
      HYP_RETURN_IF_ERROR(r->ReadU64(&ha.shard_version));
      HYP_RETURN_IF_ERROR(r->ReadU64(&ha.rows));
      HYP_RETURN_IF_ERROR(r->ReadU64(&ha.ring_epoch));
      msg->payload = std::move(ha);
      return Status::OK();
    }
    case 18: {
      ProbeMsg probe;
      HYP_RETURN_IF_ERROR(r->ReadU64(&probe.session));
      HYP_RETURN_IF_ERROR(r->ReadU8(&probe.kind));
      HYP_RETURN_IF_ERROR(r->ReadU64(&probe.partition));
      HYP_RETURN_IF_ERROR(r->ReadU64(&probe.seq));
      msg->payload = std::move(probe);
      return Status::OK();
    }
    default:
      return Status::InvalidArgument("wire: unknown payload tag " +
                                     std::to_string(tag));
  }
}

}  // namespace

std::string EncodeMessage(const Message& msg) {
  std::string out;
  out.reserve(64 + msg.ByteSize());
  PutU8(kWireVersion, &out);
  PutU8(static_cast<uint8_t>(msg.payload.index()), &out);
  PutString(msg.from, &out);
  PutString(msg.to, &out);
  EncodePayload(msg, &out);
  return out;
}

Result<Message> DecodeMessage(std::string_view bytes) {
  Reader r(bytes);
  uint8_t version = 0;
  HYP_RETURN_IF_ERROR(r.ReadU8(&version));
  if (version != kWireVersion) {
    return Status::InvalidArgument("wire: unsupported version " +
                                   std::to_string(version));
  }
  uint8_t tag = 0;
  HYP_RETURN_IF_ERROR(r.ReadU8(&tag));
  Message msg;
  HYP_RETURN_IF_ERROR(r.ReadString(&msg.from));
  HYP_RETURN_IF_ERROR(r.ReadString(&msg.to));
  HYP_RETURN_IF_ERROR(DecodePayload(tag, &r, &msg));
  if (r.remaining() != 0) {
    return Status::InvalidArgument("wire: trailing bytes after payload");
  }
  return msg;
}

void AppendFrame(std::string_view payload, uint64_t origin_token,
                 std::string* out) {
  PutU32(static_cast<uint32_t>(payload.size()), out);
  PutU64(origin_token, out);
  out->append(payload);
}

Result<FrameView> PeekFrame(std::string_view buffer) {
  FrameView view;
  if (buffer.size() < kFrameHeaderBytes) return view;  // need more
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(static_cast<uint8_t>(buffer[i])) << (8 * i);
  }
  if (len > kMaxFramePayloadBytes) {
    return Status::InvalidArgument("wire: frame payload of " +
                                   std::to_string(len) +
                                   " bytes exceeds the limit");
  }
  if (buffer.size() < kFrameHeaderBytes + len) return view;  // need more
  uint64_t token = 0;
  for (int i = 0; i < 8; ++i) {
    token |= static_cast<uint64_t>(static_cast<uint8_t>(buffer[4 + i]))
             << (8 * i);
  }
  view.complete = true;
  view.origin_token = token;
  view.payload = buffer.substr(kFrameHeaderBytes, len);
  view.consumed = kFrameHeaderBytes + len;
  return view;
}

}  // namespace wire
}  // namespace hyperion
