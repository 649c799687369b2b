#include "core/compose.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "test_util.h"
#include "workload/b2b_network.h"

namespace hyperion {
namespace {

using testing_util::Canon;
using testing_util::FiniteAttr;
using testing_util::JoinExtensions;
using testing_util::ProjectExtension;
using testing_util::RandomTable;

TEST(FreeTableTest, AddRowDedupsAndDropsEmpty) {
  FreeTable t(Schema::Of({FiniteAttr("A", 2)}));
  EXPECT_TRUE(t.AddRow(Mapping({Cell::Variable(3)})));
  EXPECT_FALSE(t.AddRow(Mapping({Cell::Variable(8)})));  // same normalized
  EXPECT_FALSE(
      t.AddRow(Mapping({Cell::Variable(0, {Value("a"), Value("b")})})));
  EXPECT_EQ(t.size(), 1u);
}

// The row index: rows are stored once, normalized, and every lookup goes
// through positions into that one vector.
TEST(FreeTableTest, DuplicatesUpToRenamingAreRejected) {
  FreeTable t(Schema::Of({Attribute::String("A"), Attribute::String("B")}));
  EXPECT_TRUE(t.AddRow(Mapping({Cell::Variable(3), Cell::Variable(3)})));
  EXPECT_FALSE(t.AddRow(Mapping({Cell::Variable(7), Cell::Variable(7)})));
  EXPECT_TRUE(t.AddRow(Mapping({Cell::Variable(5), Cell::Variable(2)})));
  EXPECT_FALSE(t.AddRow(Mapping({Cell::Variable(0), Cell::Variable(1)})));
  EXPECT_TRUE(t.AddRow(
      Mapping({Cell::Variable(4, {Value("x")}), Cell::Constant(Value("b"))})));
  EXPECT_FALSE(t.AddRow(
      Mapping({Cell::Variable(9, {Value("x")}), Cell::Constant(Value("b"))})));
  // A different exclusion set is a different row.
  EXPECT_TRUE(t.AddRow(
      Mapping({Cell::Variable(9, {Value("y")}), Cell::Constant(Value("b"))})));
  EXPECT_EQ(t.size(), 4u);
  for (const Mapping& row : t.rows()) EXPECT_TRUE(row.IsNormalized());
}

TEST(FreeTableTest, ContainsRowNormalizesItsInput) {
  FreeTable t(Schema::Of({Attribute::String("A"), Attribute::String("B")}));
  ASSERT_TRUE(t.AddRow(Mapping({Cell::Variable(0), Cell::Variable(0)})));
  ASSERT_TRUE(t.AddRow(
      Mapping({Cell::Constant(Value("a")), Cell::Variable(0, {Value("z")})})));
  EXPECT_TRUE(t.ContainsRow(Mapping({Cell::Variable(8), Cell::Variable(8)})));
  EXPECT_FALSE(t.ContainsRow(Mapping({Cell::Variable(8), Cell::Variable(2)})));
  EXPECT_TRUE(t.ContainsRow(Mapping(
      {Cell::Constant(Value("a")), Cell::Variable(6, {Value("z")})})));
  EXPECT_FALSE(t.ContainsRow(Mapping(
      {Cell::Constant(Value("a")), Cell::Variable(6, {Value("q")})})));
}

TEST(FreeTableTest, CopyThatGrowsLeavesOriginalIndexUntouched) {
  FreeTable original(Schema::Of({Attribute("A", Domain::AllInts())}));
  for (int64_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(original.AddRow(Mapping::FromTuple({Value(i)})));
  }
  FreeTable copy = original;
  // Enough new rows to force the copy's index to grow past the original.
  for (int64_t i = 40; i < 200; ++i) {
    ASSERT_TRUE(copy.AddRow(Mapping::FromTuple({Value(i)})));
  }
  EXPECT_FALSE(copy.AddRow(Mapping::FromTuple({Value(int64_t{7})})));
  EXPECT_EQ(original.size(), 40u);
  EXPECT_FALSE(original.ContainsRow(Mapping::FromTuple({Value(int64_t{40})})));
  EXPECT_TRUE(original.ContainsRow(Mapping::FromTuple({Value(int64_t{39})})));
  // The original still accepts the rows only the copy holds.
  EXPECT_TRUE(original.AddRow(Mapping::FromTuple({Value(int64_t{150})})));
  FreeTable moved = std::move(copy);
  EXPECT_EQ(moved.size(), 200u);
  EXPECT_TRUE(moved.ContainsRow(Mapping::FromTuple({Value(int64_t{199})})));
  EXPECT_FALSE(moved.AddRow(Mapping::FromTuple({Value(int64_t{0})})));
}

TEST(FreeTableTest, LookupsStayExactAcrossIndexGrowth) {
  FreeTable t(Schema::Of(
      {Attribute("A", Domain::AllInts()), Attribute::String("B")}));
  // Two row shapes per key, differing only in one cell, so near misses
  // abound; variable rows arrive with unnormalized ids.
  auto ground = [](int64_t i) {
    return Mapping::FromTuple({Value(i), Value("b")});
  };
  auto variable = [](int64_t i, VarId var) {
    return Mapping({Cell::Constant(Value(i)),
                    Cell::Variable(var, {Value(std::to_string(i))})});
  };
  constexpr int64_t kRows = 12000;
  for (int64_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE(t.AddRow(i % 2 == 0 ? ground(i)
                                    : variable(i, static_cast<VarId>(i))))
        << i;
  }
  ASSERT_EQ(t.size(), static_cast<size_t>(kRows));
  for (int64_t i = 0; i < kRows; ++i) {
    EXPECT_FALSE(t.AddRow(i % 2 == 0 ? ground(i) : variable(i, 0))) << i;
    // The other shape of the same key was never added.
    EXPECT_FALSE(t.ContainsRow(i % 2 == 1 ? ground(i) : variable(i, 3))) << i;
  }
  EXPECT_FALSE(t.ContainsRow(ground(kRows)));
  EXPECT_EQ(t.size(), static_cast<size_t>(kRows));
}

TEST(FreeTableTest, ToMappingTableSplitsAndReorders) {
  FreeTable t(Schema::Of({Attribute::String("Y"), Attribute::String("X")}));
  t.AddRow(Mapping::FromTuple({Value("y1"), Value("x1")}));
  auto table = t.ToMappingTable({"X"}, "split");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.value().x_schema().ToString(), "(X)");
  EXPECT_EQ(table.value().y_schema().ToString(), "(Y)");
  EXPECT_TRUE(table.value().SatisfiesTuple({Value("x1"), Value("y1")}));
  EXPECT_FALSE(t.ToMappingTable({"Z"}).ok());
}

// With Y named, Y keeps that order, and X and Y must split the schema
// exactly.
TEST(FreeTableTest, ToMappingTableOrdersYAsNamed) {
  FreeTable t(Schema::Of({Attribute::String("B"), Attribute::String("X"),
                          Attribute::String("A")}));
  t.AddRow(Mapping::FromTuple({Value("b1"), Value("x1"), Value("a1")}));
  auto table = t.ToMappingTable({"X"}, "cover", {"A", "B"});
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(table.value().x_schema().ToString(), "(X)");
  EXPECT_EQ(table.value().y_schema().ToString(), "(A, B)");
  EXPECT_TRUE(
      table.value().SatisfiesTuple({Value("x1"), Value("a1"), Value("b1")}));
  EXPECT_FALSE(t.ToMappingTable({"X"}, "", {"A"}).ok());        // B left out
  EXPECT_FALSE(t.ToMappingTable({"X"}, "", {"A", "X"}).ok());   // X twice
  EXPECT_FALSE(t.ToMappingTable({"X"}, "", {"A", "Z"}).ok());   // no Z
}

TEST(FreeTableJoinTest, GroundEquiJoin) {
  FreeTable ab(Schema::Of({Attribute::String("A"), Attribute::String("B")}));
  ab.AddRow(Mapping::FromTuple({Value("a1"), Value("b1")}));
  ab.AddRow(Mapping::FromTuple({Value("a2"), Value("b2")}));
  FreeTable bc(Schema::Of({Attribute::String("B"), Attribute::String("C")}));
  bc.AddRow(Mapping::FromTuple({Value("b1"), Value("c1")}));
  bc.AddRow(Mapping::FromTuple({Value("b1"), Value("c2")}));
  bc.AddRow(Mapping::FromTuple({Value("b3"), Value("c3")}));

  auto joined = ab.NaturalJoin(bc);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined.value().schema().ToString(), "(A, B, C)");
  EXPECT_EQ(joined.value().size(), 2u);
  EXPECT_TRUE(joined.value().MatchesGround(
      {Value("a1"), Value("b1"), Value("c1")}));
  EXPECT_TRUE(joined.value().MatchesGround(
      {Value("a1"), Value("b1"), Value("c2")}));
}

TEST(FreeTableJoinTest, RequiresSharedAttributes) {
  FreeTable a(Schema::Of({Attribute::String("A")}));
  FreeTable b(Schema::Of({Attribute::String("B")}));
  EXPECT_FALSE(a.NaturalJoin(b).ok());
  auto product = JoinOrProduct(a, b);
  ASSERT_TRUE(product.ok());  // falls back to Cartesian product
}

TEST(FreeTableJoinTest, IdentityComposesWithIdentity) {
  // (v, v) over (A, B) joined with (w, w) over (B, C) must give the
  // identity over (A, B, C).
  FreeTable ab(Schema::Of({Attribute::String("A"), Attribute::String("B")}));
  ab.AddRow(Mapping({Cell::Variable(0), Cell::Variable(0)}));
  FreeTable bc(Schema::Of({Attribute::String("B"), Attribute::String("C")}));
  bc.AddRow(Mapping({Cell::Variable(0), Cell::Variable(0)}));
  auto joined = ab.NaturalJoin(bc);
  ASSERT_TRUE(joined.ok());
  ASSERT_EQ(joined.value().size(), 1u);
  EXPECT_TRUE(joined.value().MatchesGround({Value("k"), Value("k"),
                                            Value("k")}));
  EXPECT_FALSE(joined.value().MatchesGround({Value("k"), Value("k"),
                                             Value("l")}));
}

TEST(FreeTableJoinTest, VariableBindingPropagatesAcrossCells) {
  // (v, v) joined with ground (b1, c1): A must equal b1.
  FreeTable ab(Schema::Of({Attribute::String("A"), Attribute::String("B")}));
  ab.AddRow(Mapping({Cell::Variable(0), Cell::Variable(0)}));
  FreeTable bc(Schema::Of({Attribute::String("B"), Attribute::String("C")}));
  bc.AddRow(Mapping::FromTuple({Value("b1"), Value("c1")}));
  auto joined = ab.NaturalJoin(bc);
  ASSERT_TRUE(joined.ok());
  ASSERT_EQ(joined.value().size(), 1u);
  EXPECT_TRUE(joined.value().rows()[0].IsGround());
  EXPECT_TRUE(joined.value().MatchesGround({Value("b1"), Value("b1"),
                                            Value("c1")}));
}

TEST(FreeTableJoinTest, ExclusionsMergeOnJoin) {
  FreeTable ab(Schema::Of({Attribute::String("A"), Attribute::String("B")}));
  ab.AddRow(Mapping({Cell::Variable(0), Cell::Variable(1, {Value("x")})}));
  FreeTable bc(Schema::Of({Attribute::String("B"), Attribute::String("C")}));
  bc.AddRow(Mapping({Cell::Variable(0, {Value("y")}), Cell::Variable(1)}));
  auto joined = ab.NaturalJoin(bc);
  ASSERT_TRUE(joined.ok());
  ASSERT_EQ(joined.value().size(), 1u);
  // B avoids both x and y now.
  EXPECT_FALSE(joined.value().MatchesGround({Value("a"), Value("x"),
                                             Value("c")}));
  EXPECT_FALSE(joined.value().MatchesGround({Value("a"), Value("y"),
                                             Value("c")}));
  EXPECT_TRUE(joined.value().MatchesGround({Value("a"), Value("z"),
                                            Value("c")}));
}

TEST(FreeTableJoinTest, ConflictingConstantsDropPair) {
  FreeTable ab(Schema::Of({Attribute::String("A"), Attribute::String("B")}));
  ab.AddRow(Mapping::FromTuple({Value("a1"), Value("b1")}));
  FreeTable bc(Schema::Of({Attribute::String("B"), Attribute::String("C")}));
  bc.AddRow(Mapping::FromTuple({Value("b2"), Value("c1")}));
  auto joined = ab.NaturalJoin(bc);
  ASSERT_TRUE(joined.ok());
  EXPECT_TRUE(joined.value().empty());
}

TEST(FreeTableProjectTest, DropsColumnsAndMergesExclusions) {
  FreeTable t(Schema::Of({Attribute::String("A"), Attribute::String("B")}));
  // Shared class with exclusions on the dropped side.
  t.AddRow(Mapping({Cell::Variable(0, {Value("p")}),
                    Cell::Variable(0, {Value("q")})}));
  auto projected = t.ProjectOnto({"A"});
  ASSERT_TRUE(projected.ok());
  ASSERT_EQ(projected.value().size(), 1u);
  // The kept cell must carry the dropped cell's exclusion too.
  EXPECT_FALSE(projected.value().MatchesGround({Value("p")}));
  EXPECT_FALSE(projected.value().MatchesGround({Value("q")}));
  EXPECT_TRUE(projected.value().MatchesGround({Value("r")}));
}

TEST(FreeTableProjectTest, MaterializesFiniteDroppedDomains) {
  // Class spans A (infinite) and B (finite {a,b}); projecting B away must
  // restrict A to {a, b}.
  FreeTable t(Schema::Of({Attribute::String("A"), FiniteAttr("B", 2)}));
  t.AddRow(Mapping({Cell::Variable(0), Cell::Variable(0)}));
  auto projected = t.ProjectOnto({"A"});
  ASSERT_TRUE(projected.ok());
  EXPECT_TRUE(projected.value().MatchesGround({Value("a")}));
  EXPECT_TRUE(projected.value().MatchesGround({Value("b")}));
  EXPECT_FALSE(projected.value().MatchesGround({Value("zzz")}));
}

TEST(FreeTableProjectTest, ReordersColumns) {
  FreeTable t(Schema::Of({Attribute::String("A"), Attribute::String("B"),
                          Attribute::String("C")}));
  t.AddRow(Mapping::FromTuple({Value("a"), Value("b"), Value("c")}));
  auto projected = t.ProjectOnto({"C", "A"});
  ASSERT_TRUE(projected.ok());
  EXPECT_EQ(projected.value().schema().ToString(), "(C, A)");
  EXPECT_TRUE(projected.value().MatchesGround({Value("c"), Value("a")}));
}

TEST(ComposeConstraintsTest, MotivatingExampleFigure2) {
  // Table 2(b): Hugo... actually GDB -> SwissProt, single row.
  MappingTable m2b =
      MappingTable::Create(Schema::Of({Attribute::String("GDB_id")}),
                           Schema::Of({Attribute::String("SwissProt_id")}),
                           "m2b")
          .value();
  ASSERT_TRUE(m2b.AddPair({Value("GDB:120231")}, {Value("O00662")}).ok());
  // SwissProt -> MIM associations from table 2(a)'s last two columns.
  MappingTable sp_mim =
      MappingTable::Create(Schema::Of({Attribute::String("SwissProt_id")}),
                           Schema::Of({Attribute::String("MIM_id")}),
                           "spmim")
          .value();
  ASSERT_TRUE(sp_mim.AddPair({Value("P21359")}, {Value("162200")}).ok());
  ASSERT_TRUE(sp_mim.AddPair({Value("O00662")}, {Value("193520")}).ok());
  ASSERT_TRUE(sp_mim.AddPair({Value("P35240")}, {Value("101000")}).ok());

  auto cover = ComposeConstraints(MappingConstraint(m2b),
                                  MappingConstraint(sp_mim));
  ASSERT_TRUE(cover.ok());
  // The witness t = (GDB:120231, O00662, 193520) of §2 exists...
  EXPECT_TRUE(
      cover.value().SatisfiesTuple({Value("GDB:120231"), Value("193520")}));
  // ...but (GDB:120231, 162200) has no witness.
  EXPECT_FALSE(
      cover.value().SatisfiesTuple({Value("GDB:120231"), Value("162200")}));
}

TEST(ComposeConstraintsTest, NamePropagation) {
  MappingTable a =
      MappingTable::Create(Schema::Of({Attribute::String("A")}),
                           Schema::Of({Attribute::String("B")}), "m1")
          .value();
  ASSERT_TRUE(a.AddPair({Value("x")}, {Value("y")}).ok());
  MappingTable b =
      MappingTable::Create(Schema::Of({Attribute::String("B")}),
                           Schema::Of({Attribute::String("C")}), "m2")
          .value();
  ASSERT_TRUE(b.AddPair({Value("y")}, {Value("z")}).ok());
  auto cover =
      ComposeConstraints(MappingConstraint(a), MappingConstraint(b));
  ASSERT_TRUE(cover.ok());
  EXPECT_EQ(cover.value().name(), "m1*m2");
  EXPECT_TRUE(cover.value().SatisfiesTuple({Value("x"), Value("z")}));
}

TEST(SemiJoinReduceTest, DropsNonContributingRows) {
  FreeTable ab(Schema::Of({Attribute::String("A"), Attribute::String("B")}));
  ab.AddRow(Mapping::FromTuple({Value("a1"), Value("b1")}));
  ab.AddRow(Mapping::FromTuple({Value("a2"), Value("b9")}));  // dangling
  FreeTable bc(Schema::Of({Attribute::String("B"), Attribute::String("C")}));
  bc.AddRow(Mapping::FromTuple({Value("b1"), Value("c1")}));
  auto reduced = SemiJoinReduce(ab, bc);
  ASSERT_TRUE(reduced.ok()) << reduced.status();
  EXPECT_EQ(reduced.value().size(), 1u);
  EXPECT_TRUE(reduced.value().MatchesGround({Value("a1"), Value("b1")}));
  // Disjoint schemas are rejected.
  FreeTable zz(Schema::Of({Attribute::String("Z")}));
  EXPECT_FALSE(SemiJoinReduce(ab, zz).ok());
}

TEST(SemiJoinReduceTest, VariableRowsKeepEverythingTheyAdmit) {
  FreeTable ab(Schema::Of({Attribute::String("A"), Attribute::String("B")}));
  ab.AddRow(Mapping::FromTuple({Value("a1"), Value("b1")}));
  ab.AddRow(Mapping({Cell::Variable(0), Cell::Variable(1, {Value("b1")})}));
  FreeTable bc(Schema::Of({Attribute::String("B"), Attribute::String("C")}));
  bc.AddRow(Mapping::FromTuple({Value("b1"), Value("c1")}));
  auto reduced = SemiJoinReduce(ab, bc);
  ASSERT_TRUE(reduced.ok());
  // The ground row matches b1; the variable row excludes b1 and the
  // reducer only offers b1, so it dies.
  EXPECT_EQ(reduced.value().size(), 1u);
  EXPECT_TRUE(reduced.value().rows()[0].IsGround());
}

// Property: reducing either join input never changes the join result.
class SemiJoinOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(SemiJoinOracleTest, ReductionPreservesJoin) {
  Rng rng(15000 + GetParam());
  size_t domain_size = 3;
  MappingTable ta = RandomTable(&rng, {"A"}, {"B"}, 5, domain_size);
  MappingTable tb = RandomTable(&rng, {"B"}, {"C"}, 5, domain_size);
  FreeTable fa = FreeTable::FromMappingTable(ta);
  FreeTable fb = FreeTable::FromMappingTable(tb);

  auto baseline = fa.NaturalJoin(fb);
  ASSERT_TRUE(baseline.ok());
  auto reduced_a = SemiJoinReduce(fa, fb);
  ASSERT_TRUE(reduced_a.ok());
  EXPECT_LE(reduced_a.value().size(), fa.size());
  auto joined = reduced_a.value().NaturalJoin(fb);
  ASSERT_TRUE(joined.ok());

  auto ext_baseline = baseline.value().EnumerateExtension();
  auto ext_joined = joined.value().EnumerateExtension();
  ASSERT_TRUE(ext_baseline.ok() && ext_joined.ok());
  EXPECT_EQ(Canon(ext_joined.value()), Canon(ext_baseline.value()));

  // Reduce both sides.
  auto reduced_b = SemiJoinReduce(fb, reduced_a.value());
  ASSERT_TRUE(reduced_b.ok());
  auto joined2 = reduced_a.value().NaturalJoin(reduced_b.value());
  ASSERT_TRUE(joined2.ok());
  auto ext_joined2 = joined2.value().EnumerateExtension();
  ASSERT_TRUE(ext_joined2.ok());
  EXPECT_EQ(Canon(ext_joined2.value()), Canon(ext_baseline.value()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SemiJoinOracleTest, ::testing::Range(0, 30));

// ---------------------------------------------------------------------------
// Property tests against brute-force extension oracles on finite domains.
// ---------------------------------------------------------------------------

class JoinOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(JoinOracleTest, JoinMatchesExtensionJoin) {
  Rng rng(2000 + GetParam());
  size_t domain_size = 3;
  MappingTable ta = RandomTable(&rng, {"A"}, {"B", "C"}, 5, domain_size);
  MappingTable tb = RandomTable(&rng, {"B"}, {"D"}, 5, domain_size);

  FreeTable fa = FreeTable::FromMappingTable(ta);
  FreeTable fb = FreeTable::FromMappingTable(tb);
  auto joined = fa.NaturalJoin(fb);
  ASSERT_TRUE(joined.ok()) << joined.status();

  auto ext_a = fa.EnumerateExtension();
  auto ext_b = fb.EnumerateExtension();
  auto ext_joined = joined.value().EnumerateExtension();
  ASSERT_TRUE(ext_a.ok() && ext_b.ok() && ext_joined.ok());

  std::vector<Tuple> oracle =
      JoinExtensions(ext_a.value(), fa.schema(), ext_b.value(), fb.schema(),
                     joined.value().schema());
  EXPECT_EQ(Canon(ext_joined.value()), oracle);
}

// A JoinIndex probe must reproduce NaturalJoin exactly: same rows, same
// variable numbering, same order — covers are compared byte for byte.
void ExpectIndexJoinEqualsNaturalJoin(const FreeTable& build,
                                      const FreeTable& probe) {
  auto expected = build.NaturalJoin(probe);
  auto index = JoinIndex::Build(build, probe.schema());
  ASSERT_EQ(expected.ok(), index.ok());
  if (!expected.ok()) return;
  auto got = index.value().Join(probe);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got.value().schema(), expected.value().schema());
  EXPECT_EQ(got.value().rows(), expected.value().rows())
      << "index:\n" << got.value().ToString() << "natural join:\n"
      << expected.value().ToString();
}

TEST_P(JoinOracleTest, JoinIndexEqualsNaturalJoinRowForRow) {
  Rng rng(9000 + GetParam());
  size_t domain_size = 3;
  // One shared attribute (B) and two (B, C); RandomCell mixes constants
  // with variables, reused variables and exclusion sets on both sides.
  FreeTable fa = FreeTable::FromMappingTable(
      RandomTable(&rng, {"A"}, {"B", "C"}, 8, domain_size));
  FreeTable fb = FreeTable::FromMappingTable(
      RandomTable(&rng, {"B"}, {"D"}, 8, domain_size));
  FreeTable fc = FreeTable::FromMappingTable(
      RandomTable(&rng, {"C"}, {"B", "E"}, 8, domain_size));
  ExpectIndexJoinEqualsNaturalJoin(fa, fb);
  ExpectIndexJoinEqualsNaturalJoin(fb, fa);
  ExpectIndexJoinEqualsNaturalJoin(fa, fc);
  ExpectIndexJoinEqualsNaturalJoin(fc, fa);

  // One index serves many probes, as a peer joins successive batches.
  auto index = JoinIndex::Build(fa, fb.schema());
  ASSERT_TRUE(index.ok());
  for (size_t start = 0; start < fb.size(); start += 3) {
    FreeTable batch(fb.schema());
    for (size_t r = start; r < std::min(fb.size(), start + 3); ++r) {
      batch.AddRow(fb.rows()[r]);
    }
    auto got = index.value().Join(batch);
    auto expected = fa.NaturalJoin(batch);
    ASSERT_TRUE(got.ok() && expected.ok());
    EXPECT_EQ(got.value().rows(), expected.value().rows());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinOracleTest, ::testing::Range(0, 30));

// Every combination of ground / variable shared cells, with exclusion
// sets on both sides, through the index and through NaturalJoin.
TEST(JoinIndexTest, CoversGroundAndVariableSharedCellsOnBothSides) {
  Schema ab = Schema::Of({Attribute::String("A"), Attribute::String("B")});
  Schema bc = Schema::Of({Attribute::String("B"), Attribute::String("C")});
  FreeTable build(ab);
  build.AddRow(Mapping::FromTuple({Value("a1"), Value("b1")}));
  build.AddRow(Mapping({Cell::Variable(0), Cell::Variable(0)}));
  build.AddRow(Mapping({Cell::Constant(Value("a2")),
                        Cell::Variable(0, {Value("b1")})}));
  build.AddRow(Mapping::FromTuple({Value("a3"), Value("b2")}));
  FreeTable probe(bc);
  probe.AddRow(Mapping({Cell::Variable(0, {Value("b2")}), Cell::Variable(0)}));
  probe.AddRow(Mapping::FromTuple({Value("b2"), Value("c2")}));
  probe.AddRow(Mapping::FromTuple({Value("b1"), Value("c1")}));
  probe.AddRow(Mapping({Cell::Variable(0), Cell::Constant(Value("c3"))}));
  ExpectIndexJoinEqualsNaturalJoin(build, probe);
  ExpectIndexJoinEqualsNaturalJoin(probe, build);

  auto joined = build.NaturalJoin(probe);
  ASSERT_TRUE(joined.ok());
  // Spot checks of the semantics the order rests on.
  EXPECT_TRUE(joined.value().MatchesGround(
      {Value("a1"), Value("b1"), Value("c1")}));
  EXPECT_TRUE(joined.value().MatchesGround(
      {Value("a3"), Value("b2"), Value("c3")}));
  EXPECT_FALSE(joined.value().MatchesGround(
      {Value("a2"), Value("b1"), Value("c1")}));  // a2's B excludes b1

  // A probe of another schema is refused, not joined positionally.
  auto index = JoinIndex::Build(build, bc);
  ASSERT_TRUE(index.ok());
  FreeTable other(Schema::Of({Attribute::String("C"), Attribute::String("B")}));
  EXPECT_EQ(index.value().Join(other).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(
      JoinIndex::Build(build, Schema::Of({Attribute::String("Z")})).ok());
}

// A peer probes a decoded batch's rows in place.  Rows that a FreeTable
// already holds (normalized, satisfiable, distinct, as every streamed row
// is) give the same table, in the same row order, whether they are
// probed as a span or as the FreeTable built from them; so does the
// Cartesian product taken when the schemas are disjoint.
TEST(JoinIndexTest, RowSpanProbeEqualsFreeTableProbe) {
  for (int seed = 0; seed < 20; ++seed) {
    Rng rng(7000 + seed);
    FreeTable fa = FreeTable::FromMappingTable(
        RandomTable(&rng, {"A"}, {"B", "C"}, 8, 3));
    FreeTable fb = FreeTable::FromMappingTable(
        RandomTable(&rng, {"B"}, {"D"}, 8, 3));
    FreeTable fe = FreeTable::FromMappingTable(
        RandomTable(&rng, {"E"}, {"F"}, 4, 3));
    auto index = JoinIndex::Build(fa, fb.schema());
    ASSERT_TRUE(index.ok()) << index.status();
    const std::vector<Mapping> decoded = fb.rows();
    for (size_t start = 0; start <= decoded.size(); start += 3) {
      const size_t end = std::min(decoded.size(), start + 3);
      std::span<const Mapping> rows(decoded.data() + start, end - start);
      FreeTable batch(fb.schema());
      for (const Mapping& row : rows) batch.AddRow(row);

      auto in_place = index.value().Join(fb.schema(), rows);
      auto via_table = index.value().Join(batch);
      ASSERT_TRUE(in_place.ok() && via_table.ok()) << "seed " << seed;
      EXPECT_EQ(in_place.value().schema(), via_table.value().schema());
      EXPECT_EQ(in_place.value().rows(), via_table.value().rows())
          << "seed " << seed << ", rows " << start << ".." << end;

      auto product_in_place = fe.CartesianProduct(fb.schema(), rows);
      auto product_via_table = fe.CartesianProduct(batch);
      ASSERT_TRUE(product_in_place.ok() && product_via_table.ok());
      EXPECT_EQ(product_in_place.value().rows(),
                product_via_table.value().rows())
          << "seed " << seed << ", rows " << start << ".." << end;
    }
    // A span over another schema is refused, as a FreeTable is.
    EXPECT_EQ(index.value().Join(fe.schema(), fe.rows()).status().code(),
              StatusCode::kInvalidArgument);
  }
}

// The per-batch step a peer ran before JoinIndex::JoinProject: the full
// join, its projection, then the dedup against the rows already
// emitted, each pass building its own copy of every row.
// `projected_rows` is set to the size of the projected table.
Result<size_t> JoinThenProjectThenDedup(
    const JoinIndex& index, std::span<const Mapping> rows,
    const std::vector<std::string>& keep, const ComposeOptions& opts,
    std::optional<FreeTable>* emitted, std::vector<Mapping>* fresh,
    size_t* projected_rows) {
  *projected_rows = 0;
  HYP_ASSIGN_OR_RETURN(FreeTable joined,
                       index.Join(index.probe_schema(), rows, opts));
  if (joined.empty() || keep.empty()) return joined.size();
  HYP_ASSIGN_OR_RETURN(FreeTable projected, joined.ProjectOnto(keep, opts));
  *projected_rows = projected.size();
  if (!*emitted) emitted->emplace(projected.schema());
  for (Mapping& row : std::move(projected).TakeRows()) {
    if ((*emitted)->AddRow(row)) fresh->push_back(std::move(row));
  }
  return joined.size();
}

// How a stream of batches ended, for the limit sweeps.
struct StreamEnd {
  bool ok = true;
  size_t max_joined = 0;  // the most joined rows of one batch
  // Each batch's joined and projected row counts: the values of
  // max_result_rows at which the stream starts to fail.
  std::set<size_t> row_counts;
};

// Streams `probe` through `index` in batches of `batch` rows, along both
// paths, each with its own `emitted` carried from batch to batch, and
// requires the same rows in the same order, batch by batch: the same
// joined count, the same fresh rows, the same `emitted` (made by the
// same batch), up to the first failure, which must be the same status.
StreamEnd ExpectJoinProjectStreamsAsThreePasses(
    const JoinIndex& index, const std::vector<Mapping>& probe, size_t batch,
    const std::vector<std::string>& keep, const ComposeOptions& opts,
    const std::string& what) {
  StreamEnd end;
  std::optional<FreeTable> want_emitted;
  std::optional<FreeTable> got_emitted;
  for (size_t start = 0; start < probe.size(); start += batch) {
    const std::span<const Mapping> rows(
        probe.data() + start, std::min(batch, probe.size() - start));
    const std::string where = what + ", batch at row " + std::to_string(start);
    std::vector<Mapping> want_fresh;
    std::vector<Mapping> got_fresh;
    size_t projected_rows = 0;
    auto want = JoinThenProjectThenDedup(index, rows, keep, opts,
                                         &want_emitted, &want_fresh,
                                         &projected_rows);
    auto got = index.JoinProject(index.probe_schema(), rows, keep, opts,
                                 &got_emitted, &got_fresh);
    EXPECT_EQ(got.status().ToString(), want.status().ToString()) << where;
    if (!want.ok() || !got.ok()) {
      end.ok = false;
      return end;
    }
    EXPECT_EQ(got.value(), want.value()) << where;
    end.max_joined = std::max(end.max_joined, want.value());
    end.row_counts.insert(want.value());
    end.row_counts.insert(projected_rows);
    EXPECT_EQ(got_fresh, want_fresh) << where;
    EXPECT_EQ(got_emitted.has_value(), want_emitted.has_value()) << where;
    if (got_emitted && want_emitted) {
      EXPECT_EQ(got_emitted->schema(), want_emitted->schema()) << where;
      EXPECT_EQ(got_emitted->rows(), want_emitted->rows()) << where;
    }
  }
  return end;
}

// Rows over SmallDomain(domain_size): about half all constants, the rest
// RandomCell's mix of constants, shared variables and exclusion sets.
FreeTable MixedTable(Rng* rng, const std::vector<std::string>& names,
                     size_t rows, size_t domain_size) {
  std::vector<Attribute> attrs;
  for (const std::string& n : names) {
    attrs.push_back(FiniteAttr(n, domain_size));
  }
  FreeTable t{Schema(attrs)};
  for (size_t r = 0; r < rows; ++r) {
    const double p_const = rng->Bernoulli(0.5) ? 1.0 : 0.4;
    VarId next_var = 0;
    std::vector<Cell> cells;
    for (size_t i = 0; i < names.size(); ++i) {
      cells.push_back(
          testing_util::RandomCell(rng, domain_size, &next_var, p_const));
    }
    t.AddRow(Mapping(std::move(cells)));
  }
  return t;
}

// JoinProject against the three passes it replaces, over random tables
// on finite domains: ground pairs, shared variables and exclusion sets,
// probe rows with a variable in a shared cell (rank 1), dropped
// positions whose finite domains force materialization, and one
// `emitted` carried across batches.  Each limit is set at every value
// where the stream starts to fail, one below it and one above: every
// batch's joined and projected row counts for max_result_rows, and 0 to
// the domain size for materialize_limit.
TEST(JoinIndexTest, JoinProjectEqualsJoinThenProjectThenDedup) {
  bool join_limit_met = false;
  bool materialize_limit_met = false;
  for (int seed = 0; seed < 20; ++seed) {
    Rng rng(11000 + seed);
    const FreeTable build = MixedTable(&rng, {"A", "B", "C"}, 10, 3);
    const FreeTable probe = MixedTable(&rng, {"B", "C", "D"}, 12, 3);
    auto index = JoinIndex::Build(build, probe.schema());
    ASSERT_TRUE(index.ok()) << index.status();
    for (const std::vector<std::string>& keep :
         {std::vector<std::string>{"A", "D"},
          std::vector<std::string>{"D", "B"},
          std::vector<std::string>{"A", "B", "C", "D"},
          std::vector<std::string>{}}) {
      for (size_t batch : {size_t{1}, size_t{4}, size_t{12}}) {
        const std::string what = "seed " + std::to_string(seed) +
                                 ", keep " + std::to_string(keep.size()) +
                                 ", batch " + std::to_string(batch);
        const StreamEnd free = ExpectJoinProjectStreamsAsThreePasses(
            index.value(), probe.rows(), batch, keep, {}, what);
        ASSERT_TRUE(free.ok) << what;
        std::set<size_t> limits;
        for (size_t rows : free.row_counts) {
          limits.insert({rows == 0 ? 0 : rows - 1, rows, rows + 1});
        }
        for (size_t max_rows : limits) {
          ComposeOptions opts;
          opts.max_result_rows = max_rows;
          const StreamEnd end = ExpectJoinProjectStreamsAsThreePasses(
              index.value(), probe.rows(), batch, keep, opts,
              what + ", max_result_rows " + std::to_string(max_rows));
          join_limit_met = join_limit_met || !end.ok;
        }
        for (size_t limit = 0; limit <= 3; ++limit) {
          ComposeOptions opts;
          opts.materialize_limit = limit;
          const StreamEnd end = ExpectJoinProjectStreamsAsThreePasses(
              index.value(), probe.rows(), batch, keep, opts,
              what + ", materialize_limit " + std::to_string(limit));
          materialize_limit_met = materialize_limit_met || !end.ok;
        }
      }
    }
  }
  EXPECT_TRUE(join_limit_met);
  EXPECT_TRUE(materialize_limit_met);
}

// A row with a variable can join to the very row a pair of constant
// rows joins to.  Whichever pair comes first counts it and projects it;
// the other is a duplicate, so the join limit sees one row.
TEST(JoinIndexTest, JoinProjectCountsARowJoinedTwiceOnce) {
  const Schema ab = Schema::Of({Attribute::String("A"), Attribute::String("B")});
  const Schema bc = Schema::Of({Attribute::String("B"), Attribute::String("C")});
  const Mapping identity({Cell::Variable(0), Cell::Variable(0)});
  const Mapping ground = Mapping::FromTuple({Value("b1"), Value("b1")});
  FreeTable probe(bc);
  probe.AddRow(Mapping({Cell::Variable(0), Cell::Constant(Value("c0"))}));
  probe.AddRow(Mapping::FromTuple({Value("b1"), Value("c1")}));
  for (const bool identity_first : {true, false}) {
    FreeTable build(ab);
    build.AddRow(identity_first ? identity : ground);
    build.AddRow(identity_first ? ground : identity);
    auto index = JoinIndex::Build(build, bc);
    ASSERT_TRUE(index.ok());
    for (size_t max_rows : {size_t{2}, size_t{3}, size_t{4}}) {
      ComposeOptions opts;
      opts.max_result_rows = max_rows;
      std::optional<FreeTable> emitted;
      std::vector<Mapping> fresh;
      auto joined = index.value().JoinProject(bc, probe.rows(), {"A", "C"},
                                              opts, &emitted, &fresh);
      if (max_rows < 3) {
        EXPECT_EQ(joined.status().code(), StatusCode::kInvalidArgument);
        continue;
      }
      ASSERT_TRUE(joined.ok()) << joined.status();
      // (b1, b1, c1) once; the identity with (?, c0); the ground row
      // with (?, c0), which unifies to (b1, b1, c0).
      EXPECT_EQ(joined.value(), 3u);
      EXPECT_EQ(fresh, emitted->rows());
      ExpectJoinProjectStreamsAsThreePasses(
          index.value(), probe.rows(), probe.size(), {"A", "C"}, opts,
          identity_first ? "identity first" : "ground first");
    }
  }
}

// Fig. 12's names partition, the real non-ground traffic: m1's identity
// and nickname rows meet m5's (FN, Gender) rows, streamed in batches
// onto (FName, LName, Gender) — and the other way round, m1's rows
// probing m5 with a variable or a constant in the shared FN cell.
TEST(JoinIndexTest, JoinProjectEqualsThreePassesOnB2bNames) {
  B2bConfig config;
  config.rows_per_table = 120;
  auto workload = B2bWorkload::Generate(config);
  ASSERT_TRUE(workload.ok()) << workload.status();
  const FreeTable& m1 = workload.value().tables().at("m1")->free_table();
  const FreeTable& m5 = workload.value().tables().at("m5")->free_table();
  const std::vector<std::string> keep = {"FName", "LName", "Gender"};
  for (const auto& [build, probe] :
       {std::pair{&m1, &m5}, std::pair{&m5, &m1}}) {
    auto index = JoinIndex::Build(*build, probe->schema());
    ASSERT_TRUE(index.ok()) << index.status();
    for (size_t batch : {size_t{7}, size_t{64}}) {
      const std::string what = "build " + build->schema().ToString() +
                               ", batch " + std::to_string(batch);
      const StreamEnd free = ExpectJoinProjectStreamsAsThreePasses(
          index.value(), probe->rows(), batch, keep, {}, what);
      ASSERT_TRUE(free.ok) << what;
      ASSERT_GT(free.max_joined, 0u) << what;
      for (size_t max_rows : {free.max_joined - 1, free.max_joined}) {
        ComposeOptions opts;
        opts.max_result_rows = max_rows;
        const StreamEnd end = ExpectJoinProjectStreamsAsThreePasses(
            index.value(), probe->rows(), batch, keep, opts,
            what + ", max_result_rows " + std::to_string(max_rows));
        EXPECT_EQ(end.ok, max_rows == free.max_joined) << what;
      }
    }
  }
}

class ProjectOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(ProjectOracleTest, ProjectionMatchesExtensionProjection) {
  Rng rng(3000 + GetParam());
  size_t domain_size = 3;
  MappingTable t = RandomTable(&rng, {"A", "B"}, {"C"}, 6, domain_size);
  FreeTable ft = FreeTable::FromMappingTable(t);

  for (const std::vector<std::string>& keep :
       {std::vector<std::string>{"A"}, std::vector<std::string>{"A", "C"},
        std::vector<std::string>{"C", "B"}}) {
    auto projected = ft.ProjectOnto(keep);
    ASSERT_TRUE(projected.ok()) << projected.status();
    auto ext = ft.EnumerateExtension();
    auto ext_projected = projected.value().EnumerateExtension();
    ASSERT_TRUE(ext.ok() && ext_projected.ok());
    EXPECT_EQ(Canon(ext_projected.value()),
              ProjectExtension(ext.value(), ft.schema(), keep));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProjectOracleTest, ::testing::Range(0, 30));

class ComposeOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(ComposeOracleTest, CoverMatchesJoinProjectOracle) {
  Rng rng(4000 + GetParam());
  size_t domain_size = 3;
  MappingTable ta = RandomTable(&rng, {"A"}, {"B"}, 6, domain_size);
  MappingTable tb = RandomTable(&rng, {"B"}, {"C"}, 6, domain_size);
  auto cover =
      ComposeConstraints(MappingConstraint(ta), MappingConstraint(tb));
  ASSERT_TRUE(cover.ok()) << cover.status();

  auto ext_a = FreeTable::FromMappingTable(ta).EnumerateExtension();
  auto ext_b = FreeTable::FromMappingTable(tb).EnumerateExtension();
  ASSERT_TRUE(ext_a.ok() && ext_b.ok());
  Schema joined_schema = Schema::Of({FiniteAttr("A", domain_size),
                                     FiniteAttr("B", domain_size),
                                     FiniteAttr("C", domain_size)});
  std::vector<Tuple> joined =
      JoinExtensions(ext_a.value(), ta.schema(), ext_b.value(), tb.schema(),
                     joined_schema);
  std::vector<Tuple> oracle =
      ProjectExtension(joined, joined_schema, {"A", "C"});

  auto ext_cover =
      FreeTable::FromMappingTable(cover.value()).EnumerateExtension();
  ASSERT_TRUE(ext_cover.ok());
  EXPECT_EQ(Canon(ext_cover.value()), oracle);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ComposeOracleTest, ::testing::Range(0, 40));

}  // namespace
}  // namespace hyperion
