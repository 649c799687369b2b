#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <random>
#include <string_view>

#include "bench.h"
#include "core/cover_engine.h"
#include "core/curator.h"
#include "core/path.h"
#include "core/value.h"
#include "p2p/message.h"
#include "p2p/wire.h"
#include "storage/shard_split.h"
#include "workload/bio_network.h"
#include "workloads.h"

namespace perfbench {

using namespace hyperion;  // NOLINT

QueryRequest PathRequest(const std::vector<std::string>& dbs) {
  QueryRequest request;
  request.path_peers = dbs;
  request.x_attrs = {Attribute::String(BioWorkload::AttrNameOf(dbs.front()))};
  request.y_attrs = {Attribute::String(BioWorkload::AttrNameOf(dbs.back()))};
  return request;
}

std::string PathName(const std::vector<std::string>& dbs) {
  std::string name;
  for (size_t i = 0; i < dbs.size(); ++i) {
    if (i) name.push_back('-');
    name.append(dbs[i]);
  }
  return name;
}

namespace {

const PeerSpec& SpecOf(const std::vector<PeerSpec>& peers,
                       const std::string& id) {
  for (const PeerSpec& spec : peers) {
    if (spec.id == id) return spec;
  }
  Fail("catalog has no peer " + id);
}

}  // namespace

std::vector<std::string> PathTables(const std::vector<PeerSpec>& peers,
                                    const std::vector<std::string>& dbs) {
  std::vector<std::string> tables;
  for (size_t hop = 0; hop + 1 < dbs.size(); ++hop) {
    const PeerSpec& spec = SpecOf(peers, dbs[hop]);
    auto edge = spec.tables_to.find(dbs[hop + 1]);
    if (edge == spec.tables_to.end()) {
      Fail("catalog has no tables " + dbs[hop] + "->" + dbs[hop + 1]);
    }
    tables.insert(tables.end(), edge->second.begin(), edge->second.end());
  }
  return tables;
}

std::vector<size_t> SeededPathOrder(uint64_t seed, size_t n_paths) {
  std::vector<size_t> order(n_paths);
  std::iota(order.begin(), order.end(), 0);
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

MappingTable WithRow(const MappingTable& table, const std::string& tag) {
  auto cell = [&](const Schema& schema, size_t i) {
    const std::string word = schema.attr(i).name() + ":" + tag;
    return schema.attr(i).domain()->value_type() == ValueType::kInt
               ? Value(static_cast<int64_t>(std::hash<std::string>()(word) &
                                            0x7fffffff))
               : Value(word);
  };
  Tuple x, y;
  for (size_t i = 0; i < table.x_schema().arity(); ++i) {
    x.push_back(cell(table.x_schema(), i));
  }
  for (size_t i = 0; i < table.y_schema().arity(); ++i) {
    y.push_back(cell(table.y_schema(), i));
  }
  auto delta =
      MappingTable::Create(table.x_schema(), table.y_schema(), table.name());
  if (!delta.ok() || !delta.value().AddPair(x, y).ok()) {
    Fail("cannot build write row for " + table.name());
  }
  auto merged = MergeUnion(table, delta.value(), table.name());
  if (!merged.ok()) Fail("merge failed: " + merged.status().ToString());
  return std::move(merged).value();
}

std::string Joined(const std::vector<double>& values) {
  std::string out;
  for (double v : values) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.1f", out.empty() ? "" : " ", v);
    out += buf;
  }
  return out;
}

double PeakRssMb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

SnapshotSource::SnapshotSource(const TableSource& source,
                               const std::vector<PeerSpec>& peers,
                               const std::vector<std::string>& dbs) {
  for (const std::string& name : PathTables(peers, dbs)) {
    auto fetched = source.Fetch(name);
    if (!fetched.ok()) Fail("snapshot fetch: " + fetched.status().ToString());
    tables_[name] = fetched.value();
  }
}

Result<VersionedTable> SnapshotSource::Fetch(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("not captured: " + name);
  return it->second;
}

void AddServiceCoreMetrics(const std::vector<Span>& spans,
                           const std::vector<int64_t>& self_ns,
                           const CounterDelta& counters, Outcome* out) {
  auto& L = out->per_layer;
  const double requests = counters.Delta("service.requests");
  L["service.submit_us"] = {
      SpanMedianMs(spans, self_ns, "service.Submit", true) * 1000.0, "us"};
  L["service.cache_hit_ratio"] = {
      Ratio(counters.Delta("service.cache_hits"), requests), "ratio"};
  L["core.cover_ms"] = {
      SpanMedianMs(spans, self_ns, "core.ComputePartitionCovers", false),
      "ms"};
  std::vector<double> rows;
  for (const Span& s : spans) {
    if (std::string_view(s.name) == "core.ComputePartitionCovers") {
      rows.push_back(static_cast<double>(s.arg));
    }
  }
  L["core.cover_rows"] = {MedianOf(rows), "rows"};
  // Sessions run per request: below 1 by the cover-cache hits (and any
  // coalesced twins).  On cover-* it is 1 by construction (cache off,
  // one caller per front end).
  L["service.exec_per_query"] = {
      Ratio(counters.Delta("service.sessions_executed"), requests), "ratio"};
}

void AddP2pCounterMetrics(const hyperion::obs::MetricsSnapshot& net_before,
                          const hyperion::obs::MetricsSnapshot& net_after,
                          const std::string& network,
                          const CounterDelta& counters, Outcome* out) {
  auto net_delta = [&](const char* counter) {
    return static_cast<double>(
        CounterTotal(net_after, counter, "network", network) -
        CounterTotal(net_before, counter, "network", network));
  };
  const double executed = counters.Delta("service.sessions_executed");
  const double msgs = net_delta("net.messages_sent");
  const double retransmits = counters.Delta("proto.retransmits");
  auto& L = out->per_layer;
  L["p2p.msgs_per_query"] = {Ratio(msgs, executed), "msgs"};
  L["p2p.bytes_per_query"] = {Ratio(net_delta("net.bytes_sent"), executed),
                              "bytes"};
  L["p2p.retransmits_per_query"] = {Ratio(retransmits, executed), "msgs"};
  L["p2p.dups_suppressed_per_query"] = {
      Ratio(counters.Delta("net.duplicates_suppressed"), executed), "msgs"};
  L["p2p.first_send_ratio"] = {Ratio(msgs - retransmits, msgs), "ratio"};
  L["p2p.session_timeouts"] = {counters.Delta("proto.session_timeouts"),
                               "count"};
}

// --- probes ------------------------------------------------------------------

double LayerProbe::Cover(const TableSource& source,
                         const std::vector<PeerSpec>& peers,
                         const std::vector<std::string>& dbs) {
  std::vector<AttributeSet> attrs;
  std::vector<std::vector<MappingConstraint>> hops;
  for (size_t hop = 0; hop < dbs.size(); ++hop) {
    const PeerSpec& spec = SpecOf(peers, dbs[hop]);
    attrs.push_back(spec.attributes);
    if (hop + 1 == dbs.size()) break;
    std::vector<MappingConstraint> constraints;
    for (const std::string& name : spec.tables_to.at(dbs[hop + 1])) {
      auto fetched = source.Fetch(name);
      if (!fetched.ok()) Fail("probe fetch: " + fetched.status().ToString());
      constraints.emplace_back(fetched.value().table);
    }
    hops.push_back(std::move(constraints));
  }
  auto path = ConstraintPath::Create(std::move(attrs), std::move(hops), dbs);
  if (!path.ok()) Fail("probe path: " + path.status().ToString());
  const std::vector<std::string> x = {BioWorkload::AttrNameOf(dbs.front())};
  const std::vector<std::string> y = {BioWorkload::AttrNameOf(dbs.back())};
  CoverEngine engine;
  const auto t0 = Clock::now();
  SpanScope span("core.ComputePartitionCovers");
  auto covers = engine.ComputePartitionCovers(path.value(), x, y);
  const double ms = MsBetween(t0, Clock::now());
  if (!covers.ok()) Fail("probe cover: " + covers.status().ToString());
  int64_t rows = 0;
  for (const PartitionCover& pc : covers.value()) {
    rows += static_cast<int64_t>(pc.cover.size());
  }
  span.set_arg(rows);
  return ms;
}

namespace {

// Encodes and decodes `msg` inside spans; adds to the probe's totals.
void WireRoundTrip(const Message& msg, size_t rows, LayerProbe* probe) {
  std::string bytes;
  int64_t t0 = NowNs();
  {
    SpanScope span("wire.EncodeMessage");
    span.set_arg(static_cast<int64_t>(rows));
    bytes = wire::EncodeMessage(msg);
  }
  int64_t t1 = NowNs();
  {
    SpanScope span("wire.DecodeMessage");
    span.set_arg(static_cast<int64_t>(rows));
    auto decoded = wire::DecodeMessage(bytes);
    if (!decoded.ok()) Fail("wire decode: " + decoded.status().ToString());
  }
  int64_t t2 = NowNs();
  probe->encode_ns += static_cast<double>(t1 - t0);
  probe->decode_ns += static_cast<double>(t2 - t1);
  probe->wire_rows += static_cast<double>(rows);
  probe->wire_bytes += static_cast<double>(bytes.size());
}

}  // namespace

void LayerProbe::WireCover(const MappingTable& cover) {
  CoverBatchMsg batch;
  batch.session = 1;
  batch.schema = cover.schema();
  batch.rows = cover.rows();
  batch.eos = true;
  WireRoundTrip(Message{"probe-a", "probe-b", std::move(batch)}, cover.size(),
                this);
}

void LayerProbe::Shards(const MappingTable& table, uint64_t version,
                        const cluster::ShardRing& ring,
                        uint64_t shard_count) {
  std::vector<uint64_t> all(shard_count);
  std::iota(all.begin(), all.end(), 0);
  std::map<uint64_t, ShardSlice> slices;
  {
    SpanScope span("storage.SliceTable");
    span.set_arg(static_cast<int64_t>(table.size()));
    slices = SliceTable(
        table, version,
        [&ring](const std::string& key) { return ring.ShardForKey(key); },
        all);
  }
  std::vector<const ShardSlice*> parts;
  for (const auto& [shard, slice] : slices) parts.push_back(&slice);
  {
    SpanScope span("storage.AssembleTable");
    span.set_arg(static_cast<int64_t>(table.size()));
    auto assembled = AssembleTable(table.name(), parts);
    if (!assembled.ok()) Fail("assemble: " + assembled.status().ToString());
  }
  for (const auto& [shard, slice] : slices) {
    ShardRowsMsg msg;
    msg.table_name = slice.table_name;
    msg.node = "probe";
    msg.shard = shard;
    msg.version = slice.version;
    msg.total_rows = slice.total_rows;
    msg.x_schema = slice.x_schema;
    msg.y_schema = slice.y_schema;
    msg.row_indices = slice.row_indices;
    msg.rows = slice.rows;
    WireRoundTrip(Message{"probe-a", "probe-b", std::move(msg)},
                  slice.rows.size(), this);
  }
}

void LayerProbe::AddWireMetrics(Outcome* out) const {
  out->per_layer["wire.encode_ns_per_row"] = {Ratio(encode_ns, wire_rows),
                                              "ns"};
  out->per_layer["wire.decode_ns_per_row"] = {Ratio(decode_ns, wire_rows),
                                              "ns"};
  out->per_layer["wire.bytes_per_row"] = {Ratio(wire_bytes, wire_rows),
                                          "bytes"};
}

}  // namespace perfbench
