// Regenerates the wire fuzz seed corpus: one canonically-encoded message
// per payload tag, each exercising the payload's interesting encodings
// (enumerated domains, variable cells with exclusions, Bloom filters,
// error branches, nested slices).
//
//   gen_wire_corpus <output-dir>
//
// Files are named tag_<NN>_<PayloadName> so tools/check_wire_coverage.py
// can assert every tag of the Message variant has a seed.  The corpus is
// checked in (fuzz/corpus/wire/); rerun this tool and commit the result
// whenever the wire format or the Message variant changes — the coverage
// lint fails the build until you do.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <variant>

#include "core/domain.h"
#include "core/mapping.h"
#include "core/schema.h"
#include "core/value_filter.h"
#include "p2p/message.h"
#include "p2p/wire.h"

namespace hyperion {
namespace {

Schema SeedSchema() {
  return Schema::Of(
      {Attribute("s", Domain::AllStrings("names")),
       Attribute("i", Domain::AllInts("counts")),
       Attribute("e", Domain::Enumerated("grades", {Value("a"), Value("b"),
                                                    Value("c")}))});
}

std::vector<Mapping> SeedRows() {
  return {
      Mapping({Cell::Constant(Value("x")), Cell::Constant(Value(int64_t{7})),
               Cell::Constant(Value("a"))}),
      Mapping({Cell::Variable(0), Cell::Variable(1, {Value(int64_t{3})}),
               Cell::Variable(0, {Value("a"), Value("b")})}),
  };
}

SessionSpec SeedSpec() {
  SessionSpec spec;
  spec.id = 7;
  spec.path_peers = {"p1", "p2", "p3"};
  spec.x_names = {"x1"};
  spec.y_names = {"y1", "y2"};
  spec.cache_capacity = 32;
  spec.semijoin_filters = true;
  return spec;
}

std::vector<PartitionSummary> SeedPartitions() {
  PartitionSummary part;
  part.attr_names = {"x1", "m"};
  part.first_hop = 0;
  part.last_hop = 1;
  PartitionMemberRef member;
  member.hop = 0;
  member.table_name = "t0";
  member.attr_names = {"x1", "m"};
  part.members.push_back(member);
  return {part};
}

WriteSliceMsg SeedWriteSlice() {
  WriteSliceMsg slice;
  slice.request_id = 31;
  slice.origin = "coord";
  slice.table_name = "links";
  slice.shard = 1;
  slice.shard_version = 9;
  slice.committed_floor = 7;
  slice.table_version = 40;
  slice.total_rows = 2;
  slice.x_schema = SeedSchema();
  slice.y_schema = SeedSchema();
  slice.row_indices = {0, 1};
  slice.rows = SeedRows();
  slice.ring_epoch = 3;
  return slice;
}

int Generate(const std::filesystem::path& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", dir.string().c_str(),
                 ec.message().c_str());
    return 1;
  }

  std::vector<std::pair<const char*, Message>> seeds;
  auto add = [&seeds](const char* payload_name, auto payload) {
    seeds.emplace_back(payload_name,
                       Message{"from-peer", "to-peer", std::move(payload)});
  };

  PingMsg ping;
  ping.ping_id = 42;
  ping.origin = "p1";
  ping.ttl = 3;
  ping.hops = 2;
  add("PingMsg", ping);

  PongMsg pong;
  pong.ping_id = 42;
  pong.responder = "p9";
  pong.hops = 4;
  add("PongMsg", pong);

  SessionInitMsg init;
  init.spec = SeedSpec();
  init.partitions = SeedPartitions();
  ValueFilter pass;
  pass.pass_all = true;
  init.forward_filters["m"] = pass;
  ValueFilter bloom;
  bloom.bloom = BloomFilter(16);
  bloom.bloom.Add(Value("hello"));
  bloom.bloom.Add(Value(int64_t{5}));
  init.forward_filters["x1"] = bloom;
  init.seq = 3;
  add("SessionInitMsg", init);

  ComputePlanMsg plan;
  plan.spec = SeedSpec();
  plan.partitions = SeedPartitions();
  plan.seq = 4;
  add("ComputePlanMsg", plan);

  CoverBatchMsg batch;
  batch.session = 11;
  batch.partition = 2;
  batch.schema = SeedSchema();
  batch.rows = SeedRows();
  batch.eos = true;
  batch.seq = 8;
  add("CoverBatchMsg", batch);

  FinalRowsMsg final_rows;
  final_rows.session = 11;
  final_rows.partition = 1;
  final_rows.schema = SeedSchema();
  final_rows.rows = SeedRows();
  final_rows.eos = true;
  final_rows.satisfiable = false;
  final_rows.error = "compose blew the materialize limit";
  final_rows.error_code = 11;
  final_rows.seq = 9;
  add("FinalRowsMsg", final_rows);

  SearchMsg search;
  search.search_id = 77;
  search.origin = "p1";
  search.ttl = 5;
  search.query.attrs = {"s"};
  search.query.keys = {Tuple({Value("needle")})};
  search.complete = false;
  add("SearchMsg", search);

  SearchHitMsg hit;
  hit.search_id = 77;
  hit.responder = "p4";
  hit.schema = SeedSchema();
  hit.tuples = {Tuple({Value("x"), Value(int64_t{7}), Value("a")})};
  hit.complete = true;
  add("SearchHitMsg", hit);

  AckMsg ack;
  ack.session = 11;
  ack.kind = 2;
  ack.partition = 1;
  ack.seq = 8;
  ack.next_expected = 6;
  ack.type = AckType::kProbeMissing;
  add("AckMsg", ack);

  HeartbeatMsg beat;
  beat.node = "store1";
  beat.role = 1;
  beat.listen_addr = "127.0.0.1:9101";
  beat.incarnation = 2;
  beat.beat = 19;
  beat.shards = {0, 1};
  beat.shard_versions = {5, 9};
  beat.ring_epoch = 3;
  beat.ring_nodes = {"store1", "store2"};
  beat.pending_epoch = 4;
  beat.pending_nodes = {"store1", "store2", "store3"};
  beat.peer_nodes = {"coord", "store2"};
  beat.peer_addrs = {"127.0.0.1:9100", "127.0.0.1:9102"};
  add("HeartbeatMsg", beat);

  ShardFetchMsg fetch;
  fetch.request_id = 23;
  fetch.table_name = "links";
  fetch.shard = 1;
  fetch.ring_epoch = 3;
  add("ShardFetchMsg", fetch);

  ShardRowsMsg rows;
  rows.request_id = 23;
  rows.table_name = "links";
  rows.node = "store1";
  rows.shard = 1;
  rows.version = 40;
  rows.total_rows = 2;
  rows.x_schema = SeedSchema();
  rows.y_schema = SeedSchema();
  rows.row_indices = {0, 1};
  rows.rows = SeedRows();
  rows.error = "slice cut failed";
  rows.error_code = 7;
  rows.ring_epoch = 3;
  add("ShardRowsMsg", rows);

  add("WriteSliceMsg", SeedWriteSlice());

  WriteAckMsg wack;
  wack.request_id = 31;
  wack.node = "store1";
  wack.shard = 1;
  wack.applied = 1;
  wack.shard_version = 9;
  wack.error = "";
  wack.error_code = 0;
  wack.ring_epoch = 3;
  add("WriteAckMsg", wack);

  RepairFetchMsg repair;
  repair.request_id = 53;
  repair.node = "store2";
  repair.shard = 1;
  repair.from_version = 8;
  add("RepairFetchMsg", repair);

  HandoffFetchMsg hfetch;
  hfetch.request_id = 61;
  hfetch.node = "store3";
  hfetch.shard = 0;
  hfetch.ring_epoch = 4;
  add("HandoffFetchMsg", hfetch);

  HandoffRowsMsg hrows;
  hrows.request_id = 61;
  hrows.node = "store1";
  hrows.shard = 0;
  hrows.shard_version = 5;
  hrows.slices = {SeedWriteSlice()};
  add("HandoffRowsMsg", hrows);

  HandoffAckMsg hack;
  hack.request_id = 61;
  hack.node = "store3";
  hack.shard = 0;
  hack.shard_version = 5;
  hack.rows = 2;
  hack.ring_epoch = 4;
  add("HandoffAckMsg", hack);

  ProbeMsg probe;
  probe.session = 11;
  probe.kind = 2;
  probe.partition = 1;
  probe.seq = 9;
  add("ProbeMsg", probe);

  if (seeds.size() != std::variant_size_v<decltype(Message::payload)>) {
    std::fprintf(stderr,
                 "seed list covers %zu payloads but the Message variant "
                 "has %zu — add a seed for the new payload\n",
                 seeds.size(),
                 std::variant_size_v<decltype(Message::payload)>);
    return 1;
  }

  for (const auto& [payload_name, msg] : seeds) {
    const std::string bytes = wire::EncodeMessage(msg);
    const size_t tag = msg.payload.index();
    if (bytes.size() < 2 || static_cast<size_t>(bytes[1]) != tag) {
      std::fprintf(stderr, "encoded %s does not carry tag %zu at byte 1\n",
                   payload_name, tag);
      return 1;
    }
    char name[64];
    std::snprintf(name, sizeof(name), "tag_%02zu_%s", tag, payload_name);
    std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", (dir / name).string().c_str());
      return 1;
    }
    std::printf("%s: %zu bytes\n", name, bytes.size());
  }
  return 0;
}

}  // namespace
}  // namespace hyperion

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <output-dir>\n", argv[0]);
    return 2;
  }
  return hyperion::Generate(argv[1]);
}
