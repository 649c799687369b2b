// JoinIndexStore: one kept index per (table name, probe schema), reused
// only for the very table object and an equal probe schema (domains
// included), replaced by a new table version, and never kept for a
// private build; and one kept starter projection per (table name,
// projected names, compose limits), under the same rules.

#include "p2p/join_index_store.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/mapping_table.h"
#include "test_util.h"

namespace hyperion {
namespace {

using testing_util::FiniteAttr;

// A B_id -> C_id table as its catalog would share it.
std::shared_ptr<const MappingTable> BcTable(const std::string& c_suffix) {
  MappingTable t =
      MappingTable::Create(Schema::Of({Attribute::String("B_id")}),
                           Schema::Of({Attribute::String("C_id")}), "mBC")
          .value();
  for (const char* b : {"b1", "b2", "b3"}) {
    EXPECT_TRUE(
        t.AddPair({Value(b)}, {Value(std::string(b) + c_suffix)}).ok());
  }
  return std::make_shared<const MappingTable>(std::move(t));
}

// The local side a peer reads in place: the table's own FreeTable.
std::shared_ptr<const FreeTable> InPlace(
    const std::shared_ptr<const MappingTable>& table) {
  return std::shared_ptr<const FreeTable>(table, &table->free_table());
}

FreeTable Probe(const Schema& schema) {
  FreeTable probe(schema);
  probe.AddRow(Mapping::FromTuple({Value("a1"), Value("b1")}));
  probe.AddRow(Mapping::FromTuple({Value("a3"), Value("b3")}));
  return probe;
}

const Schema& AbSchema() {
  static const Schema schema = Schema::Of(
      {Attribute::String("A_id"), Attribute::String("B_id")});
  return schema;
}

TEST(JoinIndexStoreTest, KeepsOneIndexPerTableAndProbeSchema) {
  JoinIndexStore store;
  auto table = BcTable("c");
  auto first = store.Get("mBC", InPlace(table), AbSchema());
  ASSERT_TRUE(first.ok()) << first.status();
  auto again = store.Get("mBC", InPlace(table), AbSchema());
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(first.value(), again.value());
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(&first.value()->build(), &table->free_table());

  // A second probe schema gets a slot of its own.
  Schema ba =
      Schema::Of({Attribute::String("B_id"), Attribute::String("A_id")});
  auto other = store.Get("mBC", InPlace(table), ba);
  ASSERT_TRUE(other.ok()) << other.status();
  EXPECT_NE(other.value(), first.value());
  EXPECT_EQ(store.size(), 2u);

  // The kept index joins exactly as a one-shot NaturalJoin does.
  FreeTable probe = Probe(AbSchema());
  auto via_store = first.value()->Join(probe);
  auto one_shot = table->free_table().NaturalJoin(probe);
  ASSERT_TRUE(via_store.ok() && one_shot.ok());
  ASSERT_EQ(via_store.value().size(), 2u);
  ASSERT_EQ(via_store.value().size(), one_shot.value().size());
  for (size_t i = 0; i < one_shot.value().size(); ++i) {
    EXPECT_EQ(via_store.value().rows()[i], one_shot.value().rows()[i]);
  }
}

TEST(JoinIndexStoreTest, NewTableVersionReplacesItsSlot) {
  JoinIndexStore store;
  auto v1 = BcTable("c");
  auto old_index = store.Get("mBC", InPlace(v1), AbSchema()).value();
  auto v2 = BcTable("z");
  auto new_index = store.Get("mBC", InPlace(v2), AbSchema()).value();
  EXPECT_NE(new_index, old_index);
  EXPECT_EQ(&new_index->build(), &v2->free_table());
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.Get("mBC", InPlace(v2), AbSchema()).value(), new_index);

  // A session still on v1 keeps a working index: it owns its table.
  std::weak_ptr<const MappingTable> v1_alive = v1;
  v1.reset();
  EXPECT_FALSE(v1_alive.expired());
  auto joined = old_index->Join(Probe(AbSchema()));
  ASSERT_TRUE(joined.ok()) << joined.status();
  EXPECT_EQ(joined.value().size(), 2u);
  old_index.reset();
  EXPECT_TRUE(v1_alive.expired());
}

TEST(JoinIndexStoreTest, ProbeWithOtherDomainsGetsAFreshIndex) {
  JoinIndexStore store;
  auto table = BcTable("c");
  auto strings = store.Get("mBC", InPlace(table), AbSchema()).value();
  // Same attribute names, a finite domain on A_id: not the same schema.
  Schema finite =
      Schema::Of({FiniteAttr("A_id", 4), Attribute::String("B_id")});
  ASSERT_TRUE(finite == AbSchema());  // Schema's == compares names only
  auto enumerated = store.Get("mBC", InPlace(table), finite).value();
  EXPECT_NE(enumerated, strings);
  EXPECT_EQ(enumerated->probe_schema().attr(0).domain()->kind(),
            Domain::Kind::kEnumerated);
  EXPECT_EQ(store.size(), 1u);
  // An equal schema built from other Domain objects is the same schema.
  Schema finite_again =
      Schema::Of({FiniteAttr("A_id", 4), Attribute::String("B_id")});
  EXPECT_EQ(store.Get("mBC", InPlace(table), finite_again).value(),
            enumerated);
}

TEST(JoinIndexStoreTest, PrivateBuildIsNotKept) {
  JoinIndexStore store;
  auto own = std::make_shared<const FreeTable>(BcTable("c")->free_table());
  auto first = store.Get("", own, AbSchema());
  auto second = store.Get("", own, AbSchema());
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_NE(first.value(), second.value());
  EXPECT_EQ(store.size(), 0u);
}

TEST(JoinIndexStoreTest, DisjointProbeFailsLoudly) {
  JoinIndexStore store;
  Schema disjoint = Schema::Of({Attribute::String("Z_id")});
  auto index = store.Get("mBC", InPlace(BcTable("c")), disjoint);
  EXPECT_FALSE(index.ok());
  EXPECT_EQ(store.size(), 0u);
}

// ---- starter projections -------------------------------------------------

const std::vector<std::string>& CNames() {
  static const std::vector<std::string> names = {"C_id"};
  return names;
}

TEST(JoinIndexStoreTest, SameTableObjectReusesItsProjection) {
  JoinIndexStore store;
  auto table = BcTable("c");
  auto first = store.GetProjection("mBC", InPlace(table), CNames(), {});
  ASSERT_TRUE(first.ok()) << first.status();
  auto again = store.GetProjection("mBC", InPlace(table), CNames(), {});
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(first.value(), again.value());
  EXPECT_EQ(store.projections(), 1u);
  EXPECT_EQ(store.size(), 0u);  // projections are not indexes

  // The kept projection is the one-shot ProjectOnto, row for row.
  auto one_shot = table->free_table().ProjectOnto(CNames());
  ASSERT_TRUE(one_shot.ok());
  EXPECT_EQ(first.value()->schema(), one_shot.value().schema());
  EXPECT_EQ(first.value()->rows(), one_shot.value().rows());
  EXPECT_EQ(first.value()->size(), 3u);
}

TEST(JoinIndexStoreTest, NewTableVersionReplacesItsProjection) {
  JoinIndexStore store;
  auto v1 = BcTable("c");
  auto old_projection =
      store.GetProjection("mBC", InPlace(v1), CNames(), {}).value();
  auto v2 = BcTable("z");
  auto new_projection =
      store.GetProjection("mBC", InPlace(v2), CNames(), {}).value();
  EXPECT_NE(new_projection, old_projection);
  EXPECT_EQ(new_projection->rows()[0],
            Mapping::FromTuple({Value("b1z")}));
  EXPECT_EQ(store.projections(), 1u);
  EXPECT_EQ(store.GetProjection("mBC", InPlace(v2), CNames(), {}).value(),
            new_projection);

  // A session still on v1 keeps its projection, and with it v1.
  std::weak_ptr<const MappingTable> v1_alive = v1;
  v1.reset();
  EXPECT_FALSE(v1_alive.expired());
  EXPECT_EQ(old_projection->rows()[0], Mapping::FromTuple({Value("b1c")}));
  old_projection.reset();
  EXPECT_TRUE(v1_alive.expired());
}

TEST(JoinIndexStoreTest, NamesAndLimitsEachGetTheirOwnProjection) {
  JoinIndexStore store;
  auto table = BcTable("c");
  auto c = store.GetProjection("mBC", InPlace(table), CNames(), {}).value();
  const std::vector<std::string> bc = {"B_id", "C_id"};
  const std::vector<std::string> cb = {"C_id", "B_id"};
  auto both = store.GetProjection("mBC", InPlace(table), bc, {}).value();
  auto swapped = store.GetProjection("mBC", InPlace(table), cb, {}).value();
  ComposeOptions tighter;
  tighter.max_result_rows = 10;
  auto limited =
      store.GetProjection("mBC", InPlace(table), CNames(), tighter).value();
  ComposeOptions fewer_values;
  fewer_values.materialize_limit = 16;
  auto materialized =
      store.GetProjection("mBC", InPlace(table), CNames(), fewer_values)
          .value();
  EXPECT_EQ(store.projections(), 5u);
  for (const auto& other : {both, swapped, limited, materialized}) {
    EXPECT_NE(other, c);
  }
  EXPECT_EQ(both->schema().attr(0).name(), "B_id");
  EXPECT_EQ(swapped->schema().attr(0).name(), "C_id");
  // Each slot serves its own lookups.
  EXPECT_EQ(store.GetProjection("mBC", InPlace(table), cb, {}).value(),
            swapped);
  EXPECT_EQ(
      store.GetProjection("mBC", InPlace(table), CNames(), tighter).value(),
      limited);
}

TEST(JoinIndexStoreTest, PrivateProjectionIsNotKept) {
  JoinIndexStore store;
  auto own = std::make_shared<const FreeTable>(BcTable("c")->free_table());
  auto first = store.GetProjection("", own, CNames(), {});
  auto second = store.GetProjection("", own, CNames(), {});
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_NE(first.value(), second.value());
  EXPECT_EQ(first.value()->rows(), second.value()->rows());
  EXPECT_EQ(store.projections(), 0u);
}

TEST(JoinIndexStoreTest, ProjectionPastItsLimitsFailsAndIsNotKept) {
  JoinIndexStore store;
  auto table = BcTable("c");
  ComposeOptions tiny;
  tiny.max_result_rows = 2;  // the projection has three rows
  auto over = store.GetProjection("mBC", InPlace(table), CNames(), tiny);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(store.projections(), 0u);
  // It fails again rather than serving anything, and a lookup within
  // the limits is unaffected.
  EXPECT_FALSE(
      store.GetProjection("mBC", InPlace(table), CNames(), tiny).ok());
  auto within = store.GetProjection("mBC", InPlace(table), CNames(), {});
  ASSERT_TRUE(within.ok()) << within.status();
  EXPECT_EQ(within.value()->size(), 3u);
  EXPECT_EQ(store.projections(), 1u);
}

}  // namespace
}  // namespace hyperion
