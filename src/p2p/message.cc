#include "p2p/message.h"

namespace hyperion {

namespace {

constexpr size_t kEnvelopeOverhead = 48;  // ids, type tag, lengths

size_t EstimateSchemaBytes(const Schema& s) {
  size_t bytes = 4;
  for (const Attribute& a : s.attrs()) bytes += a.name().size() + 2;
  return bytes;
}

size_t EstimateValueBytes(const Value& v) {
  return v.is_string() ? v.AsString().size() + 1 : 8;
}

size_t EstimateSummaryBytes(const PartitionSummary& p) {
  size_t bytes = 16;
  for (const PartitionMemberRef& m : p.members) {
    bytes += m.table_name.size() + 6;
    for (const std::string& n : m.attr_names) bytes += n.size() + 2;
  }
  for (const std::string& n : p.attr_names) bytes += n.size() + 2;
  return bytes;
}

size_t EstimateSpecBytes(const SessionSpec& spec) {
  size_t bytes = 16;
  for (const std::string& p : spec.path_peers) bytes += p.size() + 2;
  for (const std::string& n : spec.x_names) bytes += n.size() + 2;
  for (const std::string& n : spec.y_names) bytes += n.size() + 2;
  return bytes;
}

size_t EstimateWriteSliceBytes(const WriteSliceMsg& ws) {
  size_t bytes = 65 + ws.origin.size() + ws.table_name.size() +
                 ws.error.size() + EstimateSchemaBytes(ws.x_schema) +
                 EstimateSchemaBytes(ws.y_schema) + 8 * ws.row_indices.size();
  for (const Mapping& m : ws.rows) bytes += EstimateMappingBytes(m);
  return bytes;
}

}  // namespace

size_t EstimateMappingBytes(const Mapping& m) {
  size_t bytes = 2;
  for (const Cell& c : m.cells()) {
    if (c.is_constant()) {
      bytes += 1 + EstimateValueBytes(c.value());
    } else {
      bytes += 5;  // tag + var id
      for (const Value& v : c.exclusions()) bytes += EstimateValueBytes(v);
    }
  }
  return bytes;
}

size_t Message::ByteSize() const {
  size_t bytes = kEnvelopeOverhead + from.size() + to.size();
  if (const auto* ping = std::get_if<PingMsg>(&payload)) {
    bytes += 16 + ping->origin.size();
  } else if (const auto* pong = std::get_if<PongMsg>(&payload)) {
    bytes += 16 + pong->responder.size();
  } else if (const auto* init = std::get_if<SessionInitMsg>(&payload)) {
    bytes += EstimateSpecBytes(init->spec);
    for (const PartitionSummary& p : init->partitions) {
      bytes += EstimateSummaryBytes(p);
    }
    for (const auto& [attr, filter] : init->forward_filters) {
      bytes += attr.size() + filter.ByteSize();
    }
  } else if (const auto* plan = std::get_if<ComputePlanMsg>(&payload)) {
    bytes += EstimateSpecBytes(plan->spec);
    for (const PartitionSummary& p : plan->partitions) {
      bytes += EstimateSummaryBytes(p);
    }
  } else if (const auto* batch = std::get_if<CoverBatchMsg>(&payload)) {
    bytes += 16 + EstimateSchemaBytes(batch->schema);
    for (const Mapping& m : batch->rows) bytes += EstimateMappingBytes(m);
  } else if (const auto* final_rows = std::get_if<FinalRowsMsg>(&payload)) {
    bytes += 22 + EstimateSchemaBytes(final_rows->schema) +
             final_rows->error.size();
    for (const Mapping& m : final_rows->rows) {
      bytes += EstimateMappingBytes(m);
    }
  } else if (const auto* search = std::get_if<SearchMsg>(&payload)) {
    bytes += 24 + search->origin.size();
    for (const std::string& a : search->query.attrs) bytes += a.size() + 2;
    for (const Tuple& k : search->query.keys) {
      for (const Value& v : k) bytes += EstimateValueBytes(v);
    }
  } else if (const auto* hit = std::get_if<SearchHitMsg>(&payload)) {
    bytes += 16 + hit->responder.size() + EstimateSchemaBytes(hit->schema);
    for (const Tuple& t : hit->tuples) {
      for (const Value& v : t) bytes += EstimateValueBytes(v);
    }
  } else if (std::get_if<AckMsg>(&payload)) {
    bytes += 34;  // session + kind + partition + seq + next_expected + type
  } else if (const auto* hb = std::get_if<HeartbeatMsg>(&payload)) {
    bytes += 33 + hb->node.size() + hb->listen_addr.size() +
             16 * hb->shards.size();
    for (const std::string& n : hb->ring_nodes) bytes += n.size() + 4;
    for (const std::string& n : hb->pending_nodes) bytes += n.size() + 4;
    for (const std::string& n : hb->peer_nodes) bytes += n.size() + 4;
    for (const std::string& n : hb->peer_addrs) bytes += n.size() + 4;
  } else if (const auto* fetch = std::get_if<ShardFetchMsg>(&payload)) {
    bytes += 24 + fetch->table_name.size();
  } else if (const auto* slice = std::get_if<ShardRowsMsg>(&payload)) {
    bytes += 44 + slice->table_name.size() + slice->node.size() +
             slice->error.size() + EstimateSchemaBytes(slice->x_schema) +
             EstimateSchemaBytes(slice->y_schema) +
             8 * slice->row_indices.size();
    for (const Mapping& m : slice->rows) bytes += EstimateMappingBytes(m);
  } else if (const auto* ws = std::get_if<WriteSliceMsg>(&payload)) {
    bytes += EstimateWriteSliceBytes(*ws);
  } else if (const auto* wa = std::get_if<WriteAckMsg>(&payload)) {
    bytes += 37 + wa->node.size() + wa->error.size();
  } else if (const auto* rf = std::get_if<RepairFetchMsg>(&payload)) {
    bytes += 32 + rf->node.size();
  } else if (const auto* hf = std::get_if<HandoffFetchMsg>(&payload)) {
    bytes += 24 + hf->node.size();
  } else if (const auto* hr = std::get_if<HandoffRowsMsg>(&payload)) {
    bytes += 28 + hr->node.size() + hr->error.size();
    for (const WriteSliceMsg& s : hr->slices) {
      bytes += EstimateWriteSliceBytes(s);
    }
  } else if (const auto* ha = std::get_if<HandoffAckMsg>(&payload)) {
    bytes += 40 + ha->node.size();
  } else if (std::get_if<ProbeMsg>(&payload)) {
    bytes += 25;  // session + kind + partition + seq
  }
  return bytes;
}

const char* Message::TypeName() const {
  switch (payload.index()) {
    case 0:
      return "Ping";
    case 1:
      return "Pong";
    case 2:
      return "SessionInit";
    case 3:
      return "ComputePlan";
    case 4:
      return "CoverBatch";
    case 5:
      return "FinalRows";
    case 6:
      return "Search";
    case 7:
      return "SearchHit";
    case 8:
      return "Ack";
    case 9:
      return "Heartbeat";
    case 10:
      return "ShardFetch";
    case 11:
      return "ShardRows";
    case 12:
      return "WriteSlice";
    case 13:
      return "WriteAck";
    case 14:
      return "RepairFetch";
    case 15:
      return "HandoffFetch";
    case 16:
      return "HandoffRows";
    case 17:
      return "HandoffAck";
    case 18:
      return "Probe";
  }
  return "Unknown";
}

}  // namespace hyperion
