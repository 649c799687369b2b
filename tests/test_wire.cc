// Wire codec round-trips: every payload kind must survive
// encode→decode with full fidelity (the conformance suite's
// byte-identical-cover guarantee rests on this), and hostile bytes must
// fail loudly instead of crashing.

#include "p2p/wire.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "core/domain.h"
#include "core/mapping.h"
#include "core/schema.h"
#include "core/value_filter.h"

namespace hyperion {
namespace {

Message RoundTrip(const Message& msg) {
  std::string bytes = wire::EncodeMessage(msg);
  EXPECT_EQ(msg.ByteSize(), bytes.size());
  Result<Message> decoded = wire::DecodeMessage(bytes);
  EXPECT_TRUE(decoded.ok()) << decoded.status();
  return std::move(decoded).value();
}

Schema TestSchema() {
  return Schema::Of(
      {Attribute("s", Domain::AllStrings("names")),
       Attribute("i", Domain::AllInts("counts")),
       Attribute("e", Domain::Enumerated("grades", {Value("a"), Value("b"),
                                                    Value("c")}))});
}

std::vector<Mapping> TestRows() {
  return {
      Mapping({Cell::Constant(Value("x")), Cell::Constant(Value(int64_t{7})),
               Cell::Constant(Value("a"))}),
      Mapping({Cell::Variable(0), Cell::Variable(1, {Value(int64_t{3})}),
               Cell::Variable(0, {Value("a"), Value("b")})}),
  };
}

TEST(WireTest, PingPongRoundTrip) {
  PingMsg ping;
  ping.ping_id = 42;
  ping.origin = "p1";
  ping.ttl = 3;
  ping.hops = 2;
  Message got = RoundTrip(Message{"p1", "p2", ping});
  EXPECT_EQ(got.from, "p1");
  EXPECT_EQ(got.to, "p2");
  const auto& p = std::get<PingMsg>(got.payload);
  EXPECT_EQ(p.ping_id, 42u);
  EXPECT_EQ(p.origin, "p1");
  EXPECT_EQ(p.ttl, 3);
  EXPECT_EQ(p.hops, 2);

  PongMsg pong;
  pong.ping_id = 42;
  pong.responder = "p9";
  pong.hops = 4;
  Message q_env = RoundTrip(Message{"p9", "p1", pong});
  const auto& q = std::get<PongMsg>(q_env.payload);
  EXPECT_EQ(q.ping_id, 42u);
  EXPECT_EQ(q.responder, "p9");
  EXPECT_EQ(q.hops, 4);
}

TEST(WireTest, SessionInitRoundTripWithFilters) {
  SessionInitMsg init;
  init.spec.id = 7;
  init.spec.path_peers = {"a", "b", "c"};
  init.spec.x_names = {"x1"};
  init.spec.y_names = {"y1", "y2"};
  init.spec.cache_capacity = 32;
  init.spec.materialize_limit = 1000;
  init.spec.max_result_rows = 99;
  init.spec.semijoin_filters = true;
  init.spec.retransmit_timeout_us = 12345;
  init.spec.max_retransmits = 9;
  PartitionSummary part;
  part.attr_names = {"x1", "m"};
  part.first_hop = 0;
  part.last_hop = 1;
  PartitionMemberRef member;
  member.hop = 0;
  member.table_name = "t0";
  member.attr_names = {"x1", "m"};
  part.members.push_back(member);
  init.partitions.push_back(part);
  ValueFilter pass;
  pass.pass_all = true;
  init.forward_filters["m"] = pass;
  ValueFilter bloom;
  bloom.bloom = BloomFilter(16);
  bloom.bloom.Add(Value("hello"));
  bloom.bloom.Add(Value(int64_t{5}));
  init.forward_filters["x1"] = bloom;
  init.seq = 3;

  Message got_env = RoundTrip(Message{"a", "b", init});
  const auto& got = std::get<SessionInitMsg>(got_env.payload);
  EXPECT_EQ(got.spec.id, 7u);
  EXPECT_EQ(got.spec.path_peers, init.spec.path_peers);
  EXPECT_EQ(got.spec.x_names, init.spec.x_names);
  EXPECT_EQ(got.spec.y_names, init.spec.y_names);
  EXPECT_EQ(got.spec.cache_capacity, 32u);
  EXPECT_EQ(got.spec.materialize_limit, 1000u);
  EXPECT_EQ(got.spec.max_result_rows, 99u);
  EXPECT_TRUE(got.spec.semijoin_filters);
  EXPECT_EQ(got.spec.retransmit_timeout_us, 12345);
  EXPECT_EQ(got.spec.max_retransmits, 9);
  ASSERT_EQ(got.partitions.size(), 1u);
  EXPECT_EQ(got.partitions[0].attr_names, part.attr_names);
  ASSERT_EQ(got.partitions[0].members.size(), 1u);
  EXPECT_EQ(got.partitions[0].members[0].table_name, "t0");
  EXPECT_EQ(got.partitions[0].members[0].attr_names, member.attr_names);
  EXPECT_EQ(got.seq, 3u);
  ASSERT_EQ(got.forward_filters.size(), 2u);
  EXPECT_TRUE(got.forward_filters.at("m").pass_all);
  const ValueFilter& f = got.forward_filters.at("x1");
  EXPECT_FALSE(f.pass_all);
  // Bit-exact filter semantics: same members, same misses.
  EXPECT_TRUE(f.MayContain(Value("hello")));
  EXPECT_TRUE(f.MayContain(Value(int64_t{5})));
  EXPECT_EQ(f.bloom.bit_vector(), bloom.bloom.bit_vector());
}

TEST(WireTest, CoverBatchRoundTripPreservesCells) {
  CoverBatchMsg batch;
  batch.session = 11;
  batch.partition = 2;
  batch.schema = TestSchema();
  batch.rows = TestRows();
  batch.eos = true;
  batch.seq = 8;

  Message got_env = RoundTrip(Message{"b", "a", batch});
  const auto& got = std::get<CoverBatchMsg>(got_env.payload);
  EXPECT_EQ(got.session, 11u);
  EXPECT_EQ(got.partition, 2u);
  EXPECT_TRUE(got.eos);
  EXPECT_EQ(got.seq, 8u);
  ASSERT_EQ(got.schema.arity(), 3u);
  EXPECT_EQ(got.schema.attr(0).name(), "s");
  EXPECT_EQ(got.schema.attr(2).domain()->kind(), Domain::Kind::kEnumerated);
  EXPECT_EQ(got.schema.attr(2).domain()->values().size(), 3u);
  EXPECT_EQ(got.schema.attr(2).domain()->name(), "grades");
  ASSERT_EQ(got.rows.size(), 2u);
  EXPECT_EQ(got.rows[0], batch.rows[0]);
  EXPECT_EQ(got.rows[1], batch.rows[1]);
  // Restricted variable exclusions came through.
  EXPECT_EQ(got.rows[1].cell(2).exclusions().size(), 2u);
}

TEST(WireTest, FinalRowsRoundTripCarriesErrorCode) {
  FinalRowsMsg fin;
  fin.session = 5;
  fin.partition = 1;
  fin.schema = TestSchema();
  fin.rows = TestRows();
  fin.eos = true;
  fin.satisfiable = false;
  fin.error = "peer 'c' unreachable";
  fin.error_code = 9;  // kUnavailable
  fin.seq = 21;

  Message got_env = RoundTrip(Message{"c", "a", fin});
  const auto& got = std::get<FinalRowsMsg>(got_env.payload);
  EXPECT_EQ(got.session, 5u);
  EXPECT_EQ(got.partition, 1u);
  EXPECT_TRUE(got.eos);
  EXPECT_FALSE(got.satisfiable);
  EXPECT_EQ(got.error, "peer 'c' unreachable");
  EXPECT_EQ(got.error_code, 9);
  EXPECT_EQ(got.seq, 21u);
  EXPECT_EQ(got.rows, fin.rows);
}

TEST(WireTest, HeartbeatRoundTrip) {
  HeartbeatMsg hb;
  hb.node = "store1";
  hb.role = 1;
  hb.listen_addr = "127.0.0.1:9101";
  hb.incarnation = 1723200000;
  hb.beat = 42;

  Message got_env = RoundTrip(Message{"store1", "coord", hb});
  const auto& got = std::get<HeartbeatMsg>(got_env.payload);
  EXPECT_EQ(got.node, "store1");
  EXPECT_EQ(got.role, 1);
  EXPECT_EQ(got.listen_addr, "127.0.0.1:9101");
  EXPECT_EQ(got.incarnation, 1723200000u);
  EXPECT_EQ(got.beat, 42u);
}

TEST(WireTest, HeartbeatShardVersionPiggybackRoundTrip) {
  // Storage heartbeats advertise per-shard write-log versions; the pairs
  // must survive the wire exactly — anti-entropy staleness detection
  // rests on them.
  HeartbeatMsg hb;
  hb.node = "store2";
  hb.role = 1;
  hb.listen_addr = "127.0.0.1:9102";
  hb.incarnation = 9;
  hb.beat = 7;
  hb.shards = {0, 2, 5};
  hb.shard_versions = {4, 4, 3};

  Message got_env = RoundTrip(Message{"store2", "coord", hb});
  const auto& got = std::get<HeartbeatMsg>(got_env.payload);
  EXPECT_EQ(got.shards, (std::vector<uint64_t>{0, 2, 5}));
  EXPECT_EQ(got.shard_versions, (std::vector<uint64_t>{4, 4, 3}));

  // The encoder writes interleaved (shard, version) pairs keyed off
  // shards.size(), so a short shard_versions vector can never misalign
  // the stream: the missing slots go out as version 0 ("unknown"),
  // which the repair path already treats as maximally stale.
  HeartbeatMsg padded = hb;
  padded.shard_versions.pop_back();
  Message padded_env = RoundTrip(Message{"store2", "coord", padded});
  const auto& got_padded = std::get<HeartbeatMsg>(padded_env.payload);
  EXPECT_EQ(got_padded.shards, (std::vector<uint64_t>{0, 2, 5}));
  EXPECT_EQ(got_padded.shard_versions, (std::vector<uint64_t>{4, 4, 0}));
}

TEST(WireTest, WriteSliceRoundTripPreservesRepairAndError) {
  WriteSliceMsg slice;
  slice.request_id = 501;
  slice.origin = "coord";
  slice.table_name = "m5";
  slice.shard = 1;
  slice.shard_version = 6;
  slice.committed_floor = 4;  // seq 5 burned by a failed write
  slice.table_version = 9;
  slice.total_rows = 44;
  slice.x_schema = TestSchema();
  slice.y_schema = TestSchema();
  slice.row_indices = {3, 8, 40};
  slice.rows = TestRows();
  slice.rows.push_back(TestRows().front());  // indices ∥ rows

  Message got_env = RoundTrip(Message{"coord", "store1", slice});
  const auto& got = std::get<WriteSliceMsg>(got_env.payload);
  EXPECT_EQ(got.request_id, 501u);
  EXPECT_EQ(got.origin, "coord");
  EXPECT_EQ(got.table_name, "m5");
  EXPECT_EQ(got.shard, 1u);
  EXPECT_EQ(got.shard_version, 6u);
  EXPECT_EQ(got.committed_floor, 4u);
  EXPECT_EQ(got.table_version, 9u);
  EXPECT_EQ(got.total_rows, 44u);
  EXPECT_EQ(got.x_schema.arity(), 3u);
  EXPECT_EQ(got.row_indices, (std::vector<uint64_t>{3, 8, 40}));
  EXPECT_EQ(got.rows, slice.rows);
  EXPECT_EQ(got.repair, 0);
  EXPECT_TRUE(got.error.empty());

  // Repair replies carry the flag and, on failure, the loud error.
  WriteSliceMsg repair;
  repair.request_id = 502;
  repair.origin = "store2";
  repair.shard = 1;
  repair.repair = 1;
  repair.error = "no write-log entry for shard 1 version 7";
  repair.error_code = 5;  // kNotFound
  Message got_rep = RoundTrip(Message{"store2", "store1", repair});
  const auto& r = std::get<WriteSliceMsg>(got_rep.payload);
  EXPECT_EQ(r.repair, 1);
  EXPECT_EQ(r.error, "no write-log entry for shard 1 version 7");
  EXPECT_EQ(r.error_code, 5);
}

TEST(WireTest, WriteSliceRejectsIndexRowCountMismatch) {
  WriteSliceMsg slice;
  slice.request_id = 1;
  slice.origin = "coord";
  slice.table_name = "m1";
  slice.shard = 0;
  slice.shard_version = 1;
  slice.x_schema = TestSchema();
  slice.y_schema = TestSchema();
  slice.row_indices = {0, 1, 2};  // three indices...
  slice.rows = TestRows();        // ...two rows
  std::string bytes = wire::EncodeMessage(Message{"c", "s", slice});
  EXPECT_FALSE(wire::DecodeMessage(bytes).ok());
}

TEST(WireTest, WriteAckAndRepairFetchRoundTrip) {
  WriteAckMsg ack;
  ack.request_id = 501;
  ack.node = "store1";
  ack.shard = 1;
  ack.applied = 1;
  ack.shard_version = 6;
  Message a_env = RoundTrip(Message{"store1", "coord", ack});
  const auto& a = std::get<WriteAckMsg>(a_env.payload);
  EXPECT_EQ(a.request_id, 501u);
  EXPECT_EQ(a.node, "store1");
  EXPECT_EQ(a.shard, 1u);
  EXPECT_EQ(a.applied, 1);
  EXPECT_EQ(a.shard_version, 6u);
  EXPECT_TRUE(a.error.empty());

  WriteAckMsg refusal;
  refusal.request_id = 503;
  refusal.node = "store3";
  refusal.shard = 0;
  refusal.shard_version = 2;
  refusal.error = "replica 'store3' is stale on shard 0";
  refusal.error_code = 10;  // kFailedPrecondition
  Message r_env = RoundTrip(Message{"store3", "coord", refusal});
  const auto& r = std::get<WriteAckMsg>(r_env.payload);
  EXPECT_EQ(r.applied, 0);
  EXPECT_EQ(r.error, "replica 'store3' is stale on shard 0");
  EXPECT_EQ(r.error_code, 10);

  RepairFetchMsg fetch;
  fetch.request_id = 88;
  fetch.node = "store3";
  fetch.shard = 1;
  fetch.from_version = 4;
  Message f_env = RoundTrip(Message{"store3", "store1", fetch});
  const auto& f = std::get<RepairFetchMsg>(f_env.payload);
  EXPECT_EQ(f.request_id, 88u);
  EXPECT_EQ(f.node, "store3");
  EXPECT_EQ(f.shard, 1u);
  EXPECT_EQ(f.from_version, 4u);
}

TEST(WireTest, ShardFetchRoundTrip) {
  ShardFetchMsg fetch;
  fetch.request_id = 77;
  fetch.table_name = "m5";
  fetch.shard = 3;

  Message got_env = RoundTrip(Message{"coord", "store2", fetch});
  const auto& got = std::get<ShardFetchMsg>(got_env.payload);
  EXPECT_EQ(got.request_id, 77u);
  EXPECT_EQ(got.table_name, "m5");
  EXPECT_EQ(got.shard, 3u);
}

TEST(WireTest, ShardRowsRoundTripPreservesIndicesAndError) {
  ShardRowsMsg rows;
  rows.request_id = 77;
  rows.table_name = "m5";
  rows.node = "store2";
  rows.shard = 3;
  rows.version = 4;
  rows.total_rows = 1000;
  rows.x_schema = TestSchema();
  rows.y_schema = TestSchema();
  rows.row_indices = {2, 17, 999};
  rows.rows = TestRows();
  rows.rows.push_back(TestRows().front());  // indices ∥ rows
  rows.error = "";
  rows.error_code = 0;

  Message got_env = RoundTrip(Message{"store2", "coord", rows});
  const auto& got = std::get<ShardRowsMsg>(got_env.payload);
  EXPECT_EQ(got.request_id, 77u);
  EXPECT_EQ(got.table_name, "m5");
  EXPECT_EQ(got.node, "store2");
  EXPECT_EQ(got.shard, 3u);
  EXPECT_EQ(got.version, 4u);
  EXPECT_EQ(got.total_rows, 1000u);
  EXPECT_EQ(got.row_indices, (std::vector<uint64_t>{2, 17, 999}));
  EXPECT_EQ(got.rows, rows.rows);
  EXPECT_TRUE(got.error.empty());

  // The error form round-trips its code (loud attribution end to end).
  ShardRowsMsg err;
  err.request_id = 78;
  err.table_name = "m5";
  err.node = "store2";
  err.shard = 3;
  err.error = "node 'store2' has no table 'm5'";
  err.error_code = 5;  // kNotFound
  Message got_err = RoundTrip(Message{"store2", "coord", err});
  const auto& e = std::get<ShardRowsMsg>(got_err.payload);
  EXPECT_EQ(e.error, "node 'store2' has no table 'm5'");
  EXPECT_EQ(e.error_code, 5);
}

TEST(WireTest, ShardRowsRejectsIndexRowCountMismatch) {
  // A slice whose indices and rows disagree is corrupt: the decoder must
  // refuse it rather than hand storage a half-aligned slice.
  ShardRowsMsg rows;
  rows.request_id = 1;
  rows.table_name = "m1";
  rows.node = "s";
  rows.shard = 0;
  rows.x_schema = TestSchema();
  rows.y_schema = TestSchema();
  rows.row_indices = {0, 1, 2};  // three indices...
  rows.rows = TestRows();        // ...two rows
  std::string bytes = wire::EncodeMessage(Message{"s", "c", rows});
  EXPECT_FALSE(wire::DecodeMessage(bytes).ok());
}

TEST(WireTest, HandoffFetchRowsAndAckRoundTrip) {
  // The rebalance handoff triplet (fetch → rows → ack) must survive the
  // wire with full fidelity: a dropped field here silently loses shard
  // state during an epoch transition.
  HandoffFetchMsg fetch;
  fetch.request_id = 9001;
  fetch.node = "store4";
  fetch.shard = 13;
  fetch.ring_epoch = 2;
  Message f_env = RoundTrip(Message{"store4", "store1", fetch});
  const auto& f = std::get<HandoffFetchMsg>(f_env.payload);
  EXPECT_EQ(f.request_id, 9001u);
  EXPECT_EQ(f.node, "store4");
  EXPECT_EQ(f.shard, 13u);
  EXPECT_EQ(f.ring_epoch, 2u);

  WriteSliceMsg slice;
  slice.origin = "store1";
  slice.table_name = "m5";
  slice.shard = 13;
  slice.shard_version = 6;
  slice.table_version = 9;
  slice.total_rows = 44;
  slice.x_schema = TestSchema();
  slice.y_schema = TestSchema();
  slice.row_indices = {3, 8};
  slice.rows = TestRows();

  HandoffRowsMsg rows;
  rows.request_id = 9001;
  rows.node = "store1";
  rows.shard = 13;
  rows.shard_version = 6;
  rows.slices = {slice, slice};
  Message r_env = RoundTrip(Message{"store1", "store4", rows});
  const auto& r = std::get<HandoffRowsMsg>(r_env.payload);
  EXPECT_EQ(r.request_id, 9001u);
  EXPECT_EQ(r.node, "store1");
  EXPECT_EQ(r.shard, 13u);
  EXPECT_EQ(r.shard_version, 6u);
  ASSERT_EQ(r.slices.size(), 2u);
  EXPECT_EQ(r.slices[0].table_name, "m5");
  EXPECT_EQ(r.slices[0].shard_version, 6u);
  EXPECT_EQ(r.slices[0].row_indices, (std::vector<uint64_t>{3, 8}));
  EXPECT_EQ(r.slices[0].rows, slice.rows);
  EXPECT_TRUE(r.error.empty());

  // Failed handoffs travel as a loud error, not silence.
  HandoffRowsMsg failed;
  failed.request_id = 9002;
  failed.node = "store2";
  failed.shard = 5;
  failed.error = "stale ring epoch 2 (committed 3)";
  failed.error_code = 10;  // kFailedPrecondition
  Message e_env = RoundTrip(Message{"store2", "store4", failed});
  const auto& e = std::get<HandoffRowsMsg>(e_env.payload);
  EXPECT_TRUE(e.slices.empty());
  EXPECT_EQ(e.error, "stale ring epoch 2 (committed 3)");
  EXPECT_EQ(e.error_code, 10);

  HandoffAckMsg ack;
  ack.request_id = 9001;
  ack.node = "store4";
  ack.shard = 13;
  ack.shard_version = 6;
  ack.rows = 44;
  ack.ring_epoch = 2;
  Message a_env = RoundTrip(Message{"store4", "coord", ack});
  const auto& a = std::get<HandoffAckMsg>(a_env.payload);
  EXPECT_EQ(a.request_id, 9001u);
  EXPECT_EQ(a.node, "store4");
  EXPECT_EQ(a.shard, 13u);
  EXPECT_EQ(a.shard_version, 6u);
  EXPECT_EQ(a.rows, 44u);
  EXPECT_EQ(a.ring_epoch, 2u);
}

TEST(WireTest, EpochStampsAndPlacementGossipSurviveTheWire) {
  // Every epoch-stamped variant added for live rebalancing: heartbeat
  // placement announcement (committed + pending rosters and the peer
  // address gossip), and the ring_epoch stamps on shard fetches, shard
  // rows, and write slices.  Stale-epoch rejection is only as good as
  // these stamps' fidelity.
  HeartbeatMsg hb;
  hb.node = "coord";
  hb.role = 0;
  hb.listen_addr = "127.0.0.1:9100";
  hb.incarnation = 3;
  hb.beat = 11;
  hb.ring_epoch = 2;
  hb.ring_nodes = {"store1", "store2", "store3"};
  hb.pending_epoch = 3;
  hb.pending_nodes = {"store2", "store3", "store4"};
  hb.peer_nodes = {"store1", "store2"};
  hb.peer_addrs = {"127.0.0.1:9101", "127.0.0.1:9102"};
  Message hb_env = RoundTrip(Message{"coord", "store1", hb});
  const auto& got = std::get<HeartbeatMsg>(hb_env.payload);
  EXPECT_EQ(got.ring_epoch, 2u);
  EXPECT_EQ(got.ring_nodes,
            (std::vector<std::string>{"store1", "store2", "store3"}));
  EXPECT_EQ(got.pending_epoch, 3u);
  EXPECT_EQ(got.pending_nodes,
            (std::vector<std::string>{"store2", "store3", "store4"}));
  EXPECT_EQ(got.peer_nodes, (std::vector<std::string>{"store1", "store2"}));
  EXPECT_EQ(got.peer_addrs,
            (std::vector<std::string>{"127.0.0.1:9101", "127.0.0.1:9102"}));

  ShardFetchMsg fetch;
  fetch.request_id = 7;
  fetch.table_name = "m5";
  fetch.shard = 3;
  fetch.ring_epoch = 4;
  Message f_env = RoundTrip(Message{"coord", "store2", fetch});
  EXPECT_EQ(std::get<ShardFetchMsg>(f_env.payload).ring_epoch, 4u);

  ShardRowsMsg rows;
  rows.request_id = 7;
  rows.table_name = "m5";
  rows.node = "store2";
  rows.shard = 3;
  rows.x_schema = TestSchema();
  rows.y_schema = TestSchema();
  rows.ring_epoch = 4;
  Message r_env = RoundTrip(Message{"store2", "coord", rows});
  EXPECT_EQ(std::get<ShardRowsMsg>(r_env.payload).ring_epoch, 4u);

  WriteSliceMsg slice;
  slice.origin = "coord";
  slice.table_name = "m5";
  slice.shard = 3;
  slice.x_schema = TestSchema();
  slice.y_schema = TestSchema();
  slice.ring_epoch = 4;
  Message w_env = RoundTrip(Message{"coord", "store2", slice});
  EXPECT_EQ(std::get<WriteSliceMsg>(w_env.payload).ring_epoch, 4u);
}

TEST(WireTest, HandoffMessagesRejectHostileBytes) {
  // Same discipline as RejectsHostileBytes, applied to the handoff
  // triplet: every strict prefix fails, and XOR-0xff single-byte
  // corruption never crashes the decoder.
  HandoffFetchMsg fetch;
  fetch.request_id = 9001;
  fetch.node = "store4";
  fetch.shard = 13;
  fetch.ring_epoch = 2;

  WriteSliceMsg slice;
  slice.origin = "store1";
  slice.table_name = "m5";
  slice.shard = 13;
  slice.x_schema = TestSchema();
  slice.y_schema = TestSchema();
  slice.row_indices = {3, 8};
  slice.rows = TestRows();

  HandoffRowsMsg rows;
  rows.request_id = 9001;
  rows.node = "store1";
  rows.shard = 13;
  rows.shard_version = 6;
  rows.slices = {slice};

  HandoffAckMsg ack;
  ack.request_id = 9001;
  ack.node = "store4";
  ack.shard = 13;
  ack.ring_epoch = 2;

  const std::vector<std::string> encodings = {
      wire::EncodeMessage(Message{"store4", "store1", fetch}),
      wire::EncodeMessage(Message{"store1", "store4", rows}),
      wire::EncodeMessage(Message{"store4", "coord", ack}),
  };
  for (const std::string& good : encodings) {
    ASSERT_TRUE(wire::DecodeMessage(good).ok());
    for (size_t len = 0; len < good.size(); ++len) {
      EXPECT_FALSE(wire::DecodeMessage(good.substr(0, len)).ok())
          << "prefix of length " << len << " decoded";
    }
    EXPECT_FALSE(wire::DecodeMessage(good + "x").ok());
    for (size_t i = 0; i < good.size(); ++i) {
      std::string mutated = good;
      mutated[i] = static_cast<char>(mutated[i] ^ 0xff);
      // The assertion is "does not crash"; accept/reject are both fine.
      IgnoreStatus(wire::DecodeMessage(mutated));
    }
  }
}

TEST(WireTest, SearchAndHitRoundTrip) {
  SearchMsg search;
  search.search_id = 100;
  search.origin = "o";
  search.ttl = 2;
  search.query.attrs = {"gene"};
  search.query.keys = {{Value("BRCA1")}, {Value(int64_t{17})}};
  search.complete = false;
  Message s_env = RoundTrip(Message{"o", "n", search});
  const auto& s = std::get<SearchMsg>(s_env.payload);
  EXPECT_EQ(s.search_id, 100u);
  EXPECT_EQ(s.query.attrs, search.query.attrs);
  EXPECT_EQ(s.query.keys, search.query.keys);
  EXPECT_FALSE(s.complete);

  SearchHitMsg hit;
  hit.search_id = 100;
  hit.responder = "n";
  hit.schema = TestSchema();
  hit.tuples = {{Value("x"), Value(int64_t{1}), Value("a")}};
  hit.complete = true;
  Message h_env = RoundTrip(Message{"n", "o", hit});
  const auto& h = std::get<SearchHitMsg>(h_env.payload);
  EXPECT_EQ(h.search_id, 100u);
  EXPECT_EQ(h.responder, "n");
  EXPECT_EQ(h.tuples, hit.tuples);
  EXPECT_TRUE(h.complete);
}

TEST(WireTest, AckAndComputePlanRoundTrip) {
  AckMsg ack;
  ack.session = 1;
  ack.kind = 3;
  ack.partition = 2;
  ack.seq = 14;
  ack.next_expected = 12;
  Message a_env = RoundTrip(Message{"b", "a", ack});
  const auto& a = std::get<AckMsg>(a_env.payload);
  EXPECT_EQ(a.session, 1u);
  EXPECT_EQ(a.kind, 3);
  EXPECT_EQ(a.partition, 2u);
  EXPECT_EQ(a.seq, 14u);
  EXPECT_EQ(a.next_expected, 12u);
  EXPECT_EQ(a.type, AckType::kArrival);

  ComputePlanMsg plan;
  plan.spec.id = 4;
  plan.spec.path_peers = {"a", "b"};
  plan.seq = 1;
  Message p_env = RoundTrip(Message{"b", "a", plan});
  const auto& p = std::get<ComputePlanMsg>(p_env.payload);
  EXPECT_EQ(p.spec.id, 4u);
  EXPECT_EQ(p.spec.path_peers, plan.spec.path_peers);
  EXPECT_EQ(p.seq, 1u);
}

TEST(WireTest, ProbeAndProbeAnswerRoundTrip) {
  ProbeMsg probe;
  probe.session = 9;
  probe.kind = 2;
  probe.partition = 3;
  probe.seq = 11;
  Message p_env = RoundTrip(Message{"a", "b", probe});
  const auto& p = std::get<ProbeMsg>(p_env.payload);
  EXPECT_EQ(p.session, 9u);
  EXPECT_EQ(p.kind, 2);
  EXPECT_EQ(p.partition, 3u);
  EXPECT_EQ(p.seq, 11u);

  for (AckType type : {AckType::kProbeHeld, AckType::kProbeMissing}) {
    AckMsg answer;
    answer.session = 9;
    answer.kind = 2;
    answer.partition = 3;
    answer.seq = 11;
    answer.next_expected = 10;
    answer.type = type;
    Message a_env = RoundTrip(Message{"b", "a", answer});
    const auto& a = std::get<AckMsg>(a_env.payload);
    EXPECT_EQ(a.seq, 11u);
    EXPECT_EQ(a.next_expected, 10u);
    EXPECT_EQ(a.type, type);
  }

  // An ack type byte past kProbeMissing is malformed.
  AckMsg ack;
  std::string bytes = wire::EncodeMessage(Message{"b", "a", ack});
  bytes.back() = 3;
  EXPECT_FALSE(wire::DecodeMessage(bytes).ok());
}

TEST(WireTest, RejectsHostileBytes) {
  // Empty, truncated, and garbage inputs all fail without crashing.
  EXPECT_FALSE(wire::DecodeMessage("").ok());
  EXPECT_FALSE(wire::DecodeMessage("\x01").ok());
  EXPECT_FALSE(wire::DecodeMessage(std::string(3, '\xff')).ok());

  PingMsg ping;
  ping.origin = "p";
  std::string good = wire::EncodeMessage(Message{"a", "b", ping});
  ASSERT_TRUE(wire::DecodeMessage(good).ok());
  // Every strict prefix is truncated input.
  for (size_t len = 0; len < good.size(); ++len) {
    EXPECT_FALSE(wire::DecodeMessage(good.substr(0, len)).ok())
        << "prefix of length " << len << " decoded";
  }
  // Trailing junk is rejected too.
  EXPECT_FALSE(wire::DecodeMessage(good + "x").ok());
  // Unknown version and unknown payload tag.
  std::string bad_version = good;
  bad_version[0] = 99;
  EXPECT_FALSE(wire::DecodeMessage(bad_version).ok());
  std::string bad_tag = good;
  bad_tag[1] = 99;
  EXPECT_FALSE(wire::DecodeMessage(bad_tag).ok());
  // Single-byte corruptions must never crash (they may still decode
  // when the flipped byte is payload data).
  for (size_t i = 0; i < good.size(); ++i) {
    std::string mutated = good;
    mutated[i] = static_cast<char>(mutated[i] ^ 0xff);
    // The assertion is "does not crash"; accept/reject are both fine.
    IgnoreStatus(wire::DecodeMessage(mutated));
  }
}

TEST(WireTest, RejectsOversizedCountsAndEmptyEnumeratedDomain) {
  // A CoverBatch whose declared row count exceeds the bytes present.
  CoverBatchMsg batch;
  batch.schema = TestSchema();
  batch.rows = TestRows();
  std::string bytes = wire::EncodeMessage(Message{"a", "b", batch});
  // Find the row-count u32 (value 2) right after the schema and bump it.
  // Instead of byte surgery, just truncate: a count promising more rows
  // than the input holds must be rejected before any allocation.
  for (size_t cut = 1; cut < 20; ++cut) {
    ASSERT_GT(bytes.size(), cut);
    EXPECT_FALSE(
        wire::DecodeMessage(bytes.substr(0, bytes.size() - cut)).ok());
  }

  // An enumerated domain with zero values would trip the Domain
  // factory's assert; the decoder must reject it first.  Construct the
  // bytes by hand: version, tag=4 (CoverBatch), from, to, session,
  // partition, schema with one enumerated attr of 0 values.
  std::string hand;
  auto put_u8 = [&](uint8_t v) { hand.push_back(static_cast<char>(v)); };
  auto put_u32 = [&](uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      hand.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  auto put_u64 = [&](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hand.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  auto put_str = [&](const std::string& s) {
    put_u32(static_cast<uint32_t>(s.size()));
    hand += s;
  };
  put_u8(1);    // version
  put_u8(4);    // CoverBatch
  put_str("a");
  put_str("b");
  put_u64(1);   // session
  put_u64(0);   // partition
  put_u32(1);   // schema arity
  put_str("e");
  put_u8(2);    // enumerated
  put_str("d");
  put_u32(0);   // zero values — must be rejected
  Result<Message> decoded = wire::DecodeMessage(hand);
  EXPECT_FALSE(decoded.ok());
}

// The committed seeds in fuzz/corpus/wire/ (one per payload tag) pin the
// wire format byte for byte: each must decode and re-encode to exactly
// its own bytes, and ByteSize() must count exactly those bytes.  The
// shard write log stores these same bytes, so a codec change that moves
// one breaks existing logs too.
TEST(WireTest, CorpusSeedsReencodeByteForByte) {
  size_t seeds = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(HYPERION_WIRE_CORPUS_DIR)) {
    std::ifstream in(entry.path(), std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    Result<Message> msg = wire::DecodeMessage(bytes);
    ASSERT_TRUE(msg.ok()) << entry.path() << ": " << msg.status();
    EXPECT_EQ(wire::EncodeMessage(msg.value()), bytes) << entry.path();
    EXPECT_EQ(msg.value().ByteSize(), bytes.size()) << entry.path();
    ++seeds;
  }
  EXPECT_EQ(seeds, std::variant_size_v<decltype(Message::payload)>);
}

TEST(WireTest, FramingRoundTripAndResync) {
  std::string stream;
  wire::AppendFrame("hello", 7, &stream);
  wire::AppendFrame("", 8, &stream);
  wire::AppendFrame("world!", 7, &stream);

  // Feed the stream byte by byte: PeekFrame must wait for completeness.
  std::string buffer;
  std::vector<std::pair<std::string, uint64_t>> frames;
  for (char c : stream) {
    buffer.push_back(c);
    for (;;) {
      Result<wire::FrameView> view = wire::PeekFrame(buffer);
      ASSERT_TRUE(view.ok());
      if (!view.value().complete) break;
      frames.emplace_back(std::string(view.value().payload),
                          view.value().origin_token);
      buffer.erase(0, view.value().consumed);
    }
  }
  EXPECT_TRUE(buffer.empty());
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0], (std::pair<std::string, uint64_t>("hello", 7)));
  EXPECT_EQ(frames[1], (std::pair<std::string, uint64_t>("", 8)));
  EXPECT_EQ(frames[2], (std::pair<std::string, uint64_t>("world!", 7)));

  // A header declaring an absurd payload fails instead of allocating.
  std::string hostile;
  for (int i = 0; i < 12; ++i) hostile.push_back('\xff');
  EXPECT_FALSE(wire::PeekFrame(hostile).ok());
}

}  // namespace
}  // namespace hyperion
