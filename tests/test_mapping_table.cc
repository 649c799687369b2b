#include "core/mapping_table.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace hyperion {
namespace {

using testing_util::Canon;
using testing_util::FiniteAttr;

// The paper's Figure 1: the GDB -> SwissProt table.
MappingTable Figure1Table() {
  auto table = MappingTable::Create(
      Schema::Of({Attribute::String("GDB_id")}),
      Schema::Of({Attribute::String("SwissProt_id")}), "fig1");
  EXPECT_TRUE(table.ok());
  MappingTable t = std::move(table).value();
  EXPECT_TRUE(t.AddPair({Value("GDB:120231")}, {Value("P21359")}).ok());
  EXPECT_TRUE(t.AddPair({Value("GDB:120231")}, {Value("O00662")}).ok());
  EXPECT_TRUE(t.AddPair({Value("GDB:120231")}, {Value("Q9UMK3")}).ok());
  EXPECT_TRUE(t.AddPair({Value("GDB:120232")}, {Value("P35240")}).ok());
  EXPECT_TRUE(t.AddPair({Value("GDB:120233")}, {Value("P01138")}).ok());
  return t;
}

TEST(MappingTableTest, CreateRejectsEmptySides) {
  EXPECT_FALSE(MappingTable::Create(Schema(), Schema::Of(
                                        {Attribute::String("Y")})).ok());
  EXPECT_FALSE(MappingTable::Create(Schema::Of({Attribute::String("X")}),
                                    Schema()).ok());
  // Overlapping X and Y is rejected (they must be disjoint).
  EXPECT_FALSE(MappingTable::Create(Schema::Of({Attribute::String("A")}),
                                    Schema::Of({Attribute::String("A")}))
                   .ok());
}

TEST(MappingTableTest, Figure1BasicQueries) {
  MappingTable t = Figure1Table();
  EXPECT_EQ(t.size(), 5u);
  EXPECT_EQ(t.x_arity(), 1u);
  // The mapping is many-to-many: one gene, three proteins.
  auto ym = t.YmGround({Value("GDB:120231")});
  ASSERT_TRUE(ym.ok());
  EXPECT_EQ(ym.value().size(), 3u);
  EXPECT_TRUE(t.SatisfiesTuple({Value("GDB:120231"), Value("O00662")}));
  EXPECT_FALSE(t.SatisfiesTuple({Value("GDB:120231"), Value("P35240")}));
  // CC-world: an absent X-value maps to nothing.
  EXPECT_FALSE(t.SatisfiesTuple({Value("GDB:999999"), Value("P21359")}));
  EXPECT_FALSE(t.XValueHasImage({Value("GDB:999999")}));
  EXPECT_TRUE(t.XValueHasImage({Value("GDB:120233")}));
}

TEST(MappingTableTest, AddRowValidatesArityAndDomains) {
  Schema x = Schema::Of({FiniteAttr("A", 2)});
  Schema y = Schema::Of({FiniteAttr("B", 2)});
  MappingTable t = MappingTable::Create(x, y).value();
  EXPECT_FALSE(t.AddRow(Mapping({Cell::Constant(Value("a"))})).ok());
  EXPECT_FALSE(
      t.AddRow(Mapping::FromTuple({Value("z"), Value("a")})).ok());
  EXPECT_TRUE(t.AddRow(Mapping::FromTuple({Value("a"), Value("b")})).ok());
  // Unsatisfiable row (variable excludes whole finite domain).
  EXPECT_FALSE(
      t.AddRow(Mapping({Cell::Variable(0, {Value("a"), Value("b")}),
                        Cell::Variable(1)}))
          .ok());
}

TEST(MappingTableTest, DuplicateRowsCollapse) {
  MappingTable t = Figure1Table();
  size_t before = t.size();
  EXPECT_TRUE(t.AddPair({Value("GDB:120231")}, {Value("P21359")}).ok());
  EXPECT_EQ(t.size(), before);
  // Rows equal up to variable renaming also collapse.
  Schema x = Schema::Of({Attribute::String("A")});
  Schema y = Schema::Of({Attribute::String("B")});
  MappingTable v = MappingTable::Create(x, y).value();
  EXPECT_TRUE(v.AddRow(Mapping({Cell::Variable(4), Cell::Variable(4)})).ok());
  EXPECT_TRUE(v.AddRow(Mapping({Cell::Variable(9), Cell::Variable(9)})).ok());
  EXPECT_EQ(v.size(), 1u);
  EXPECT_TRUE(
      v.ContainsRow(Mapping({Cell::Variable(0), Cell::Variable(0)})));
}

// The row index: one stored copy per row, deduplicated by position.
TEST(MappingTableTest, DuplicatesUpToRenamingAreRejected) {
  Schema x = Schema::Of({Attribute::String("A")});
  Schema y = Schema::Of({Attribute::String("B"), Attribute::String("C")});
  MappingTable t = MappingTable::Create(x, y).value();
  ASSERT_TRUE(t.AddRow(Mapping({Cell::Variable(6), Cell::Variable(2),
                                Cell::Variable(6, {Value("q")})}))
                  .ok());
  ASSERT_TRUE(t.AddRow(Mapping({Cell::Variable(1), Cell::Variable(0),
                                Cell::Variable(1, {Value("q")})}))
                  .ok());
  EXPECT_EQ(t.size(), 1u);
  // Same shape, different sharing: a new row.
  ASSERT_TRUE(t.AddRow(Mapping({Cell::Variable(1), Cell::Variable(1),
                                Cell::Variable(1, {Value("q")})}))
                  .ok());
  EXPECT_EQ(t.size(), 2u);
  for (const Mapping& row : t.rows()) EXPECT_TRUE(row.IsNormalized());
  EXPECT_EQ(t.rows()[0].cell(0).var(), 0u);
  EXPECT_EQ(t.rows()[0].cell(1).var(), 1u);
}

TEST(MappingTableTest, ContainsRowNormalizesItsInput) {
  MappingTable t = Figure1Table();
  ASSERT_TRUE(t.AddRow(Mapping({Cell::Variable(0, {Value("GDB:1")}),
                                Cell::Constant(Value("P1"))}))
                  .ok());
  EXPECT_TRUE(t.ContainsRow(Mapping({Cell::Variable(41, {Value("GDB:1")}),
                                     Cell::Constant(Value("P1"))})));
  EXPECT_FALSE(t.ContainsRow(Mapping({Cell::Variable(41, {Value("GDB:2")}),
                                      Cell::Constant(Value("P1"))})));
  EXPECT_TRUE(t.ContainsRow(
      Mapping::FromTuple({Value("GDB:120232"), Value("P35240")})));
  EXPECT_FALSE(t.ContainsRow(
      Mapping::FromTuple({Value("GDB:120232"), Value("P21359")})));
}

TEST(MappingTableTest, CopyThatGrowsLeavesOriginalIndexUntouched) {
  MappingTable original = Figure1Table();
  MappingTable copy = original;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(copy.AddPair({Value("GDB:" + std::to_string(i))},
                             {Value("P" + std::to_string(i))})
                    .ok());
  }
  EXPECT_EQ(copy.size(), original.size() + 100);
  EXPECT_EQ(original.size(), 5u);
  EXPECT_FALSE(
      original.ContainsRow(Mapping::FromTuple({Value("GDB:7"), Value("P7")})));
  EXPECT_TRUE(
      copy.ContainsRow(Mapping::FromTuple({Value("GDB:7"), Value("P7")})));
  ASSERT_TRUE(original.AddPair({Value("GDB:7")}, {Value("P7")}).ok());
  EXPECT_EQ(original.size(), 6u);
  EXPECT_EQ(copy.size(), 105u);
}

TEST(MappingTableTest, LookupsStayExactAcrossIndexGrowth) {
  Schema x = Schema::Of({Attribute("A", Domain::AllInts())});
  Schema y = Schema::Of({Attribute::String("B")});
  MappingTable t = MappingTable::Create(x, y).value();
  constexpr int64_t kRows = 12000;
  for (int64_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE(t.AddPair({Value(i)}, {Value(std::to_string(i % 97))}).ok());
  }
  ASSERT_EQ(t.size(), static_cast<size_t>(kRows));
  for (int64_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE(t.AddPair({Value(i)}, {Value(std::to_string(i % 97))}).ok());
    EXPECT_TRUE(t.ContainsRow(
        Mapping::FromTuple({Value(i), Value(std::to_string(i % 97))})));
    EXPECT_FALSE(t.ContainsRow(
        Mapping::FromTuple({Value(i), Value(std::to_string(i % 97 + 1))})));
  }
  EXPECT_EQ(t.size(), static_cast<size_t>(kRows));
  EXPECT_TRUE(t.SatisfiesTuple({Value(int64_t{11999}), Value("68")}));
}

TEST(MappingTableTest, VariableRowsAnswerYm) {
  // Figure 3 (bottom): CC-world table with a catch-all row.
  Schema x = Schema::Of({Attribute::String("GDB_id")});
  Schema y = Schema::Of({Attribute::String("SwissProt_id")});
  MappingTable t = MappingTable::Create(x, y).value();
  ASSERT_TRUE(t.AddPair({Value("GDB:120231")}, {Value("P21359")}).ok());
  ASSERT_TRUE(t.AddPair({Value("GDB:120232")}, {Value("P35240")}).ok());
  ASSERT_TRUE(
      t.AddRow(Mapping({Cell::Variable(0, {Value("GDB:120231"),
                                           Value("GDB:120232")}),
                        Cell::Variable(1)}))
          .ok());
  // Mentioned ids keep their closed-world image.
  EXPECT_TRUE(t.SatisfiesTuple({Value("GDB:120231"), Value("P21359")}));
  EXPECT_FALSE(t.SatisfiesTuple({Value("GDB:120231"), Value("ZZZ")}));
  // Unmentioned ids map anywhere.
  EXPECT_TRUE(t.SatisfiesTuple({Value("GDB:777777"), Value("ZZZ")}));
  // Y_m of an unmentioned id is infinite: YmGround must fail...
  EXPECT_FALSE(t.YmGround({Value("GDB:777777")}).ok());
  // ...but the image is known nonempty.
  EXPECT_TRUE(t.XValueHasImage({Value("GDB:777777")}));
}

TEST(MappingTableTest, EnumerateExtensionMatchesSemantics) {
  Schema x = Schema::Of({FiniteAttr("A", 2)});
  Schema y = Schema::Of({FiniteAttr("B", 2)});
  MappingTable t = MappingTable::Create(x, y).value();
  ASSERT_TRUE(t.AddPair({Value("a")}, {Value("a")}).ok());
  ASSERT_TRUE(
      t.AddRow(Mapping({Cell::Variable(0), Cell::Variable(1, {Value("a")})}))
          .ok());
  auto ext = t.EnumerateExtension();
  ASSERT_TRUE(ext.ok());
  EXPECT_EQ(Canon(ext.value()),
            (std::vector<Tuple>{{Value("a"), Value("a")},
                                {Value("a"), Value("b")},
                                {Value("b"), Value("b")}}));
  for (const Tuple& tuple : ext.value()) {
    EXPECT_TRUE(t.SatisfiesTuple(tuple));
  }
  EXPECT_TRUE(t.IsSatisfiable());
}

TEST(MappingTableTest, FilterRelationReproducesFigure4) {
  // Figure 4: GDB relation x SwissProt relation filtered by the table.
  Relation gdb(Schema::Of(
      {Attribute::String("GDB_id"), Attribute::String("Gene Name")}));
  ASSERT_TRUE(gdb.Add({Value("GDB:120231"), Value("NF1")}).ok());
  ASSERT_TRUE(gdb.Add({Value("GDB:120232"), Value("NF2")}).ok());
  ASSERT_TRUE(gdb.Add({Value("GDB:120233"), Value("NGFB")}).ok());

  Relation swissprot(Schema::Of({Attribute::String("SwissProt_id"),
                                 Attribute::String("Protein Name")}));
  ASSERT_TRUE(swissprot.Add({Value("P21359"), Value("NF1")}).ok());
  ASSERT_TRUE(swissprot.Add({Value("P35240"), Value("MERL")}).ok());

  MappingTable table =
      MappingTable::Create(Schema::Of({Attribute::String("GDB_id")}),
                           Schema::Of({Attribute::String("SwissProt_id")}))
          .value();
  ASSERT_TRUE(table.AddPair({Value("GDB:120232")}, {Value("P35240")}).ok());
  ASSERT_TRUE(table
                  .AddRow(Mapping({Cell::Variable(0, {Value("GDB:120232")}),
                                   Cell::Variable(1, {Value("P35240")})}))
                  .ok());

  Relation product = gdb.CartesianProduct(swissprot).value();
  EXPECT_EQ(product.size(), 6u);
  auto filtered = table.FilterRelation(product);
  ASSERT_TRUE(filtered.ok());
  // The paper's result: exactly three of the six pairs survive.
  EXPECT_EQ(filtered.value().size(), 3u);
  EXPECT_TRUE(filtered.value().Contains(
      {Value("GDB:120231"), Value("NF1"), Value("P21359"), Value("NF1")}));
  EXPECT_TRUE(filtered.value().Contains(
      {Value("GDB:120232"), Value("NF2"), Value("P35240"), Value("MERL")}));
  EXPECT_TRUE(filtered.value().Contains({Value("GDB:120233"), Value("NGFB"),
                                         Value("P21359"), Value("NF1")}));
}

TEST(MappingTableTest, DescribeStats) {
  MappingTable t = Figure1Table();
  MappingTable::Stats stats = t.Describe();
  EXPECT_EQ(stats.rows, 5u);
  EXPECT_EQ(stats.ground_rows, 5u);
  EXPECT_EQ(stats.variable_rows, 0u);
  EXPECT_EQ(stats.distinct_ground_x, 3u);
  EXPECT_EQ(stats.max_fanout, 3u);  // GDB:120231 maps to three proteins
  EXPECT_DOUBLE_EQ(stats.avg_fanout, 5.0 / 3.0);
  EXPECT_EQ(stats.total_exclusion_values, 0u);

  ASSERT_TRUE(
      t.AddRow(Mapping({Cell::Variable(0, {Value("a"), Value("b")}),
                        Cell::Variable(1)}))
          .ok());
  stats = t.Describe();
  EXPECT_EQ(stats.variable_rows, 1u);
  EXPECT_EQ(stats.total_exclusion_values, 2u);
}

TEST(MappingTableTest, ClassifyShapes) {
  Schema x = Schema::Of({Attribute::String("A")});
  Schema y = Schema::Of({Attribute::String("B")});
  using Shape = MappingTable::MappingShape;

  MappingTable one_one = MappingTable::Create(x, y).value();
  ASSERT_TRUE(one_one.AddPair({Value("a1")}, {Value("b1")}).ok());
  ASSERT_TRUE(one_one.AddPair({Value("a2")}, {Value("b2")}).ok());
  EXPECT_EQ(one_one.Classify(), Shape::kOneToOne);

  MappingTable one_many = MappingTable::Create(x, y).value();
  ASSERT_TRUE(one_many.AddPair({Value("a1")}, {Value("b1")}).ok());
  ASSERT_TRUE(one_many.AddPair({Value("a1")}, {Value("b2")}).ok());
  EXPECT_EQ(one_many.Classify(), Shape::kOneToMany);

  MappingTable many_one = MappingTable::Create(x, y).value();
  ASSERT_TRUE(many_one.AddPair({Value("a1")}, {Value("b1")}).ok());
  ASSERT_TRUE(many_one.AddPair({Value("a2")}, {Value("b1")}).ok());
  EXPECT_EQ(many_one.Classify(), Shape::kManyToOne);

  MappingTable many_many = Figure1Table();  // aliases: N-M per the paper
  ASSERT_TRUE(many_many.AddPair({Value("GDB:120239")}, {Value("P21359")})
                  .ok());
  EXPECT_EQ(many_many.Classify(), Shape::kManyToMany);

  // Identity rows stay one-to-one; catch-all rows force many-to-many.
  MappingTable ident = MappingTable::Create(x, y).value();
  ASSERT_TRUE(
      ident.AddRow(Mapping({Cell::Variable(0), Cell::Variable(0)})).ok());
  EXPECT_EQ(ident.Classify(), Shape::kOneToOne);
  MappingTable open_world = MappingTable::Create(x, y).value();
  ASSERT_TRUE(
      open_world.AddRow(Mapping({Cell::Variable(0), Cell::Variable(1)}))
          .ok());
  EXPECT_EQ(open_world.Classify(), Shape::kManyToMany);
  EXPECT_STREQ(MappingTable::MappingShapeToString(Shape::kOneToMany),
               "one-to-many");
}

TEST(MappingTableTest, SerializeParseRoundTrip) {
  MappingTable t = Figure1Table();
  std::string text = t.Serialize();
  auto parsed = MappingTable::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().name(), "fig1");
  EXPECT_EQ(parsed.value().size(), t.size());
  for (const Mapping& row : t.rows()) {
    EXPECT_TRUE(parsed.value().ContainsRow(row));
  }
}

TEST(MappingTableTest, SerializeParseRoundTripWithVariables) {
  Schema x = Schema::Of({Attribute::String("A"), Attribute::String("N")});
  Schema y = Schema::Of({Attribute::String("B")});
  MappingTable t = MappingTable::Create(x, y, "vars").value();
  ASSERT_TRUE(t.AddRow(Mapping({Cell::Variable(0, {Value("p,q"),
                                                   Value("r|s")}),
                                Cell::Constant(Value("{odd}")),
                                Cell::Variable(0)}))
                  .ok());
  ASSERT_TRUE(t.AddRow(Mapping({Cell::Constant(Value("?notavar")),
                                Cell::Variable(0), Cell::Variable(1)}))
                  .ok());
  auto parsed = MappingTable::Parse(t.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed.value().size(), 2u);
  for (const Mapping& row : t.rows()) {
    EXPECT_TRUE(parsed.value().ContainsRow(row)) << row.ToString();
  }
}

TEST(MappingTableTest, FreeTableInPlaceEqualsRowCopy) {
  // Ground rows, variable rows, a duplicate up to renaming and a row
  // whose variables are not yet in normal order.
  MappingTable t = Figure1Table();
  ASSERT_TRUE(t.AddRow(Mapping({Cell::Variable(3, {Value("GDB:1")}),
                                Cell::Variable(3)}))
                  .ok());
  ASSERT_TRUE(t.AddRow(Mapping({Cell::Variable(7, {Value("GDB:1")}),
                                Cell::Variable(7)}))
                  .ok());
  ASSERT_TRUE(
      t.AddRow(Mapping({Cell::Variable(5), Cell::Constant(Value("P1"))}))
          .ok());
  ASSERT_TRUE(t.AddPair({Value("GDB:120232")}, {Value("P35240")}).ok());
  ASSERT_EQ(t.size(), 7u);

  // What a reader used to build: a FreeTable fed every row in order.
  FreeTable copy(t.schema());
  for (const Mapping& row : t.rows()) copy.AddRow(row);

  const FreeTable& in_place = t.free_table();
  EXPECT_EQ(&in_place.rows(), &t.rows());
  EXPECT_TRUE(in_place.schema() == copy.schema());
  ASSERT_EQ(in_place.size(), copy.size());
  for (size_t i = 0; i < copy.size(); ++i) {
    EXPECT_EQ(in_place.rows()[i], copy.rows()[i]) << "row " << i;
  }
  for (const Mapping& row : copy.rows()) {
    EXPECT_TRUE(in_place.ContainsRow(row)) << row.ToString();
  }
}

TEST(MappingTableTest, ParseWithIntDomain) {
  const char* text =
      "name: ages\n"
      "x: Age:int\n"
      "y: Group:string\n"
      "7|child\n"
      "42|adult\n";
  auto parsed = MappingTable::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(
      parsed.value().SatisfiesTuple({Value(int64_t{7}), Value("child")}));
  EXPECT_FALSE(
      parsed.value().SatisfiesTuple({Value(int64_t{7}), Value("adult")}));
}

TEST(MappingTableTest, ParseErrors) {
  EXPECT_FALSE(MappingTable::Parse("").ok());
  EXPECT_FALSE(MappingTable::Parse("x: A:string\nrow|data\n").ok());
  EXPECT_FALSE(
      MappingTable::Parse("x: A:string\ny: B:string\nonecell\n").ok());
  EXPECT_FALSE(
      MappingTable::Parse("x: A:float\ny: B:string\n").ok());
  EXPECT_FALSE(
      MappingTable::Parse("x: A:int\ny: B:string\nnotanint|b\n").ok());
}

}  // namespace
}  // namespace hyperion
