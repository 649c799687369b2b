// Google-benchmark microbenchmarks for the core primitives: table
// lookups, unification-based joins, projection, containment and
// partitioning.  These quantify the costs the experiment harnesses
// aggregate.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/compose.h"
#include "core/containment.h"
#include "core/cover_engine.h"
#include "core/partition.h"
#include "core/query.h"
#include "p2p/wire.h"
#include "workload/b2b_network.h"
#include "workload/bio_network.h"
#include "workload/id_gen.h"

namespace hyperion {
namespace {

MappingTable ChainTable(size_t rows, const std::string& x,
                        const std::string& y, size_t offset = 0) {
  MappingTable t =
      MappingTable::Create(Schema::Of({Attribute::String(x)}),
                           Schema::Of({Attribute::String(y)}), x + y)
          .value();
  for (size_t i = 0; i < rows; ++i) {
    // Synthetic generator values never violate the domain; the bench
    // drops the Status explicitly.
    IgnoreStatus(t.AddPair({Value(x + std::to_string(i))},
                           {Value(y + std::to_string(i + offset))}));
  }
  return t;
}

void BM_SatisfiesTuple(benchmark::State& state) {
  MappingTable t = ChainTable(static_cast<size_t>(state.range(0)), "a", "b");
  Tuple probe = {Value("a123"), Value("b123")};
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.SatisfiesTuple(probe));
  }
}
BENCHMARK(BM_SatisfiesTuple)->Arg(1000)->Arg(10000);

void BM_YmGround(benchmark::State& state) {
  MappingTable t = ChainTable(static_cast<size_t>(state.range(0)), "a", "b");
  Tuple x = {Value("a42")};
  for (auto _ : state) {
    auto ym = t.YmGround(x);
    benchmark::DoNotOptimize(ym);
  }
}
BENCHMARK(BM_YmGround)->Arg(1000)->Arg(10000);

// The inputs of the join benchmarks are read in place from tables that
// live through the whole run, so the timed loop starts from the same
// heap however their set-up freed memory.
void BM_NaturalJoin(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  const MappingTable ab = ChainTable(rows, "a", "b");
  const MappingTable bc = ChainTable(rows, "b", "c");
  const FreeTable& a = ab.free_table();
  const FreeTable& b = bc.free_table();
  for (auto _ : state) {
    auto joined = a.NaturalJoin(b);
    benchmark::DoNotOptimize(joined);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_NaturalJoin)->Arg(1000)->Arg(10000);

void BM_JoinWithVariableRow(benchmark::State& state) {
  // A catch-all row on one side forces pairing against every left row.
  size_t rows = static_cast<size_t>(state.range(0));
  FreeTable a = FreeTable::FromMappingTable(ChainTable(rows, "a", "b"));
  MappingTable vt =
      MappingTable::Create(Schema::Of({Attribute::String("b")}),
                           Schema::Of({Attribute::String("c")}), "v")
          .value();
  // The variable row matches the schema by construction.
  IgnoreStatus(vt.AddRow(Mapping({Cell::Variable(0), Cell::Variable(1)})));
  FreeTable b = FreeTable::FromMappingTable(vt);
  for (auto _ : state) {
    auto joined = a.NaturalJoin(b);
    benchmark::DoNotOptimize(joined);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_JoinWithVariableRow)->Arg(1000)->Arg(10000);

void BM_ProjectOnto(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  const MappingTable ab = ChainTable(rows, "a", "b");
  const MappingTable bc = ChainTable(rows, "b", "c");
  const FreeTable joined = ab.free_table().NaturalJoin(bc.free_table()).value();
  for (auto _ : state) {
    auto projected = joined.ProjectOnto({"a", "c"});
    benchmark::DoNotOptimize(projected);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_ProjectOnto)->Arg(1000)->Arg(10000);

// A join of tables that share no attribute is their Cartesian product,
// as when partition covers are combined: 1000 x 8 rows, a few of them
// with variables, so most pairs are copied and some shift variables.
void BM_ProductJoin(benchmark::State& state) {
  MappingTable ab = ChainTable(996, "a", "b");
  MappingTable cd = ChainTable(6, "c", "d");
  for (int i = 0; i < 4; ++i) {
    // Variable rows match the schema by construction.
    IgnoreStatus(ab.AddRow(Mapping(
        {Cell::Constant(Value("v" + std::to_string(i))), Cell::Variable(0)})));
  }
  IgnoreStatus(cd.AddRow(Mapping({Cell::Variable(0), Cell::Variable(0)})));
  IgnoreStatus(cd.AddRow(
      Mapping({Cell::Variable(0, {Value("c0")}), Cell::Variable(1)})));
  const FreeTable& a = ab.free_table();
  const FreeTable& b = cd.free_table();
  for (auto _ : state) {
    auto product = a.NaturalJoin(b);
    benchmark::DoNotOptimize(product);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(a.size() * b.size()));
}
BENCHMARK(BM_ProductJoin);

void BM_ComposeConstraints(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  MappingTable a = ChainTable(rows, "a", "b");
  MappingTable b = ChainTable(rows, "b", "c");
  for (auto _ : state) {
    auto cover =
        ComposeConstraints(MappingConstraint(a), MappingConstraint(b));
    benchmark::DoNotOptimize(cover);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_ComposeConstraints)->Arg(1000)->Arg(10000);

void BM_ContainmentGround(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  MappingTable small = ChainTable(rows / 2, "a", "b");
  MappingTable big = ChainTable(rows, "a", "b");
  for (auto _ : state) {
    auto contained = TableContained(small, big);
    benchmark::DoNotOptimize(contained);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows / 2));
}
BENCHMARK(BM_ContainmentGround)->Arg(1000)->Arg(10000);

void BM_ComputePartitions(benchmark::State& state) {
  // Many constraints over a sliding attribute window: a long chain of
  // overlaps that union-find must collapse.
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<MappingConstraint> constraints;
  for (size_t i = 0; i < n; ++i) {
    MappingTable t =
        MappingTable::Create(
            Schema::Of({Attribute::String("A" + std::to_string(i))}),
            Schema::Of({Attribute::String("A" + std::to_string(i + 1))}),
            "c" + std::to_string(i))
            .value();
    IgnoreStatus(t.AddPair({Value("x")}, {Value("y")}));  // fixed literals
    constraints.emplace_back(std::move(t));
  }
  for (auto _ : state) {
    auto partitions = ComputePartitions(constraints);
    benchmark::DoNotOptimize(partitions);
  }
}
BENCHMARK(BM_ComputePartitions)->Arg(64)->Arg(512);

// One streamed batch at a middle peer of a path: the batch (64 rows, the
// default cache capacity, of the downstream peer's table) probes the
// peer's table through its kept JoinIndex, is projected onto what the
// upstream peers still need and is deduplicated into a fresh `emitted`,
// as PeerNode::ProcessBatch does.  Arg 0: GDB on Fig. 10's bio path
// Hugo, GDB, SwissProt, MIM, every row ground.  Arg 1: Fig. 12's B2B
// names partition at P1, whose m1 rows (identity, nicknames) all carry
// variables.  The emitted_row counter is the time per emitted row.
void BM_JoinProjectBatch(benchmark::State& state) {
  constexpr size_t kBatchRows = 64;
  std::shared_ptr<const MappingTable> build;
  std::shared_ptr<const MappingTable> probe;
  std::vector<std::string> keep;
  if (state.range(0) == 0) {
    BioConfig config;
    config.num_entities = 2000;
    BioWorkload bio = BioWorkload::Generate(config).value();
    build = bio.TableBetween("GDB", "SwissProt").value();
    probe = bio.TableBetween("SwissProt", "MIM").value();
    keep = {"GDB_id", "MIM_id"};
  } else {
    B2bConfig config;
    config.rows_per_table = 2000;
    B2bWorkload b2b = B2bWorkload::Generate(config).value();
    build = b2b.tables().at("m1");
    probe = b2b.tables().at("m5");
    keep = {"FName", "LName", "Gender"};
  }
  const FreeTable& local = build->free_table();
  const Schema& schema = probe->schema();
  const std::span<const Mapping> batch(
      probe->rows().data(), std::min(kBatchRows, probe->rows().size()));
  const JoinIndex index = JoinIndex::Build(local, schema).value();
  const ComposeOptions opts;
  size_t emitted_rows = 0;
  for (auto _ : state) {
    std::optional<FreeTable> emitted;
    std::vector<Mapping> fresh;
    auto joined =
        index.JoinProject(schema, batch, keep, opts, &emitted, &fresh);
    benchmark::DoNotOptimize(joined);
    emitted_rows += fresh.size();
  }
  state.counters["emitted_row"] =
      benchmark::Counter(static_cast<double>(emitted_rows),
                         benchmark::Counter::kIsRate |
                             benchmark::Counter::kInvert);
}
BENCHMARK(BM_JoinProjectBatch)->Arg(0)->Arg(1);

// A CoverBatch as a peer streams it on Fig. 10's bio path: 64 rows of
// the SwissProt-MIM table, with their schema.
Message BioCoverBatch() {
  BioConfig config;
  config.num_entities = 2000;
  BioWorkload bio = BioWorkload::Generate(config).value();
  std::shared_ptr<const MappingTable> table =
      bio.TableBetween("SwissProt", "MIM").value();
  CoverBatchMsg batch;
  batch.session = 1;
  batch.schema = table->schema();
  const size_t rows = std::min<size_t>(64, table->rows().size());
  batch.rows.assign(table->rows().begin(), table->rows().begin() + rows);
  batch.seq = 1;
  return Message{"SwissProt", "GDB", std::move(batch)};
}

// The copy ReliableLink::Send keeps of every sequenced send, for a
// retransmit that a loss-free run never makes.
void BM_CopyCoverBatch(benchmark::State& state) {
  const Message msg = BioCoverBatch();
  for (auto _ : state) {
    Message kept = msg;
    benchmark::DoNotOptimize(kept);
  }
}
BENCHMARK(BM_CopyCoverBatch);

// A receiving peer decoding that batch from its frame's payload.
void BM_DecodeCoverBatch(benchmark::State& state) {
  const std::string bytes = wire::EncodeMessage(BioCoverBatch());
  for (auto _ : state) {
    Result<Message> decoded = wire::DecodeMessage(bytes);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_DecodeCoverBatch);

void BM_BioGenerate(benchmark::State& state) {
  for (auto _ : state) {
    BioConfig config;
    config.num_entities = static_cast<size_t>(state.range(0));
    auto workload = BioWorkload::Generate(config);
    benchmark::DoNotOptimize(workload);
  }
}
BENCHMARK(BM_BioGenerate)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_JoinViaMapping(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  Relation left(Schema::Of({Attribute::String("a")}));
  Relation right(Schema::Of({Attribute::String("b")}));
  MappingTable table = ChainTable(rows, "a", "b");
  for (size_t i = 0; i < rows; ++i) {
    // Same generator-values-are-valid argument as ChainTable.
    IgnoreStatus(left.Add({Value("a" + std::to_string(i))}));
    IgnoreStatus(right.Add({Value("b" + std::to_string(i))}));
  }
  for (auto _ : state) {
    auto joined = JoinViaMapping(left, table, right);
    benchmark::DoNotOptimize(joined);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_JoinViaMapping)->Arg(1000)->Arg(10000);

void BM_TranslateQuery(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  MappingTable table = ChainTable(rows, "a", "b");
  SelectionQuery q;
  q.attrs = {"a"};
  for (size_t i = 0; i < rows; i += 4) {
    q.keys.push_back({Value("a" + std::to_string(i))});
  }
  for (auto _ : state) {
    auto out = TranslateQuery(q, table);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(q.keys.size()));
}
BENCHMARK(BM_TranslateQuery)->Arg(1000)->Arg(10000);

void BM_CoverDelta(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  MappingTable ab = ChainTable(rows, "a", "b");
  MappingTable bc = ChainTable(rows, "b", "c");
  auto path = ConstraintPath::Create(
                  {AttributeSet::Of({Attribute::String("a")}),
                   AttributeSet::Of({Attribute::String("b")}),
                   AttributeSet::Of({Attribute::String("c")})},
                  {{MappingConstraint(ab)}, {MappingConstraint(bc)}})
                  .value();
  std::vector<Mapping> delta;
  for (size_t i = 0; i < 32; ++i) {
    delta.push_back(Mapping::FromTuple(
        {Value("aNEW" + std::to_string(i)), Value("b" + std::to_string(i))}));
  }
  CoverEngine engine;
  for (auto _ : state) {
    auto d = engine.CoverDeltaForAddedRows(path, 0, 0, delta, {"a"}, {"c"});
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_CoverDelta)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_TableSerializeParse(benchmark::State& state) {
  MappingTable t = ChainTable(static_cast<size_t>(state.range(0)), "a", "b");
  for (auto _ : state) {
    std::string text = t.Serialize();
    auto parsed = MappingTable::Parse(text);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TableSerializeParse)->Arg(1000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hyperion

BENCHMARK_MAIN();
