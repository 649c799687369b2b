#include "core/mapping.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/free_table.h"
#include "p2p/wire.h"
#include "test_util.h"

namespace hyperion {
namespace {

using testing_util::Canon;
using testing_util::FiniteAttr;

Schema StringPair() {
  return Schema::Of({Attribute::String("A"), Attribute::String("B")});
}

TEST(CellTest, ConstantBasics) {
  Cell c = Cell::Constant(Value("x"));
  EXPECT_TRUE(c.is_constant());
  EXPECT_EQ(c.value(), Value("x"));
  EXPECT_TRUE(c.AdmitsValue(Value("x")));
  EXPECT_FALSE(c.AdmitsValue(Value("y")));
  EXPECT_EQ(c.ToString(), "x");
}

TEST(CellTest, VariableBasics) {
  Cell v = Cell::Variable(3, {Value("a"), Value("b")});
  EXPECT_TRUE(v.is_variable());
  EXPECT_EQ(v.var(), 3u);
  EXPECT_FALSE(v.AdmitsValue(Value("a")));
  EXPECT_TRUE(v.AdmitsValue(Value("c")));
  EXPECT_EQ(v.ToString(), "?3-{a,b}");
  EXPECT_EQ(Cell::Variable(0).ToString(), "?0");
}

TEST(MappingTest, FromTupleIsGround) {
  Mapping m = Mapping::FromTuple({Value("x"), Value("y")});
  EXPECT_TRUE(m.IsGround());
  EXPECT_EQ(m.arity(), 2u);
  EXPECT_EQ(m.ToString(), "(x, y)");
}

TEST(MappingTest, MatchesGroundConstants) {
  Schema s = StringPair();
  Mapping m = Mapping::FromTuple({Value("x"), Value("y")});
  EXPECT_TRUE(m.MatchesGround({Value("x"), Value("y")}, s));
  EXPECT_FALSE(m.MatchesGround({Value("x"), Value("z")}, s));
  EXPECT_FALSE(m.MatchesGround({Value("x")}, s));  // arity mismatch
}

TEST(MappingTest, MatchesGroundSharedVariable) {
  Schema s = StringPair();
  // Identity mapping (v, v) of the paper's Example 3.
  Mapping ident({Cell::Variable(0), Cell::Variable(0)});
  EXPECT_TRUE(ident.MatchesGround({Value("k"), Value("k")}, s));
  EXPECT_FALSE(ident.MatchesGround({Value("k"), Value("l")}, s));
}

TEST(MappingTest, MatchesGroundRespectsExclusions) {
  Schema s = StringPair();
  Mapping m({Cell::Variable(0, {Value("x")}), Cell::Variable(1)});
  EXPECT_FALSE(m.MatchesGround({Value("x"), Value("y")}, s));
  EXPECT_TRUE(m.MatchesGround({Value("z"), Value("y")}, s));
}

TEST(MappingTest, MatchesGroundRespectsDomains) {
  Schema s = Schema::Of({FiniteAttr("A", 2), FiniteAttr("B", 2)});
  Mapping m({Cell::Variable(0), Cell::Variable(1)});
  EXPECT_TRUE(m.MatchesGround({Value("a"), Value("b")}, s));
  EXPECT_FALSE(m.MatchesGround({Value("z"), Value("b")}, s));
}

TEST(MappingTest, VariableClassesAndExclusions) {
  Mapping m({Cell::Variable(0, {Value("a")}), Cell::Variable(1),
             Cell::Variable(0, {Value("b")})});
  auto classes = m.VariableClasses();
  EXPECT_EQ(classes.size(), 2u);
  EXPECT_EQ(classes[0], (std::vector<size_t>{0, 2}));
  EXPECT_EQ(m.CombinedExclusions(0),
            (std::set<Value>{Value("a"), Value("b")}));
}

TEST(MappingTest, SatisfiabilityOverFiniteDomains) {
  Schema s = Schema::Of({FiniteAttr("A", 2), FiniteAttr("B", 2)});
  // v - {a, b} over a 2-element domain is empty.
  Mapping empty({Cell::Variable(0, {Value("a"), Value("b")}),
                 Cell::Variable(1)});
  EXPECT_FALSE(empty.IsSatisfiable(s));
  Mapping ok({Cell::Variable(0, {Value("a")}), Cell::Variable(1)});
  EXPECT_TRUE(ok.IsSatisfiable(s));
}

TEST(MappingTest, SatisfiabilitySharedVariableAcrossDomains) {
  // Shared variable must live in the intersection of both domains.
  Schema s = Schema::Of({FiniteAttr("A", 2), FiniteAttr("B", 3)});
  Mapping shared({Cell::Variable(0), Cell::Variable(0)});
  EXPECT_TRUE(shared.IsSatisfiable(s));
  // Excluding the whole intersection {a, b} kills it.
  Mapping dead({Cell::Variable(0, {Value("a")}),
                Cell::Variable(0, {Value("b")})});
  EXPECT_FALSE(dead.IsSatisfiable(s));
}

TEST(MappingTest, PickWitnessRespectsStructure) {
  Schema s = StringPair();
  Mapping m({Cell::Variable(0, {Value("x")}), Cell::Variable(0)});
  auto witness = m.PickWitness(s);
  ASSERT_TRUE(witness);
  EXPECT_EQ((*witness)[0], (*witness)[1]);
  EXPECT_TRUE(m.MatchesGround(*witness, s));
}

TEST(MappingTest, NormalizedRenumbersInFirstOccurrenceOrder) {
  Mapping m({Cell::Variable(7), Cell::Variable(3), Cell::Variable(7)});
  Mapping n = m.Normalized();
  EXPECT_EQ(n.cell(0).var(), 0u);
  EXPECT_EQ(n.cell(1).var(), 1u);
  EXPECT_EQ(n.cell(2).var(), 0u);
  // Normalization makes renamed-apart mappings equal.
  Mapping m2({Cell::Variable(1), Cell::Variable(9), Cell::Variable(1)});
  EXPECT_EQ(n, m2.Normalized());
}

TEST(MappingTest, ProjectKeepsCellsInOrder) {
  Mapping m({Cell::Constant(Value("x")), Cell::Variable(0),
             Cell::Constant(Value("z"))});
  Mapping p = m.Project({2, 0});
  EXPECT_EQ(p.arity(), 2u);
  EXPECT_EQ(p.cell(0).value(), Value("z"));
  EXPECT_EQ(p.cell(1).value(), Value("x"));
}

TEST(MappingTest, EnumerateExtensionGround) {
  Schema s = Schema::Of({FiniteAttr("A", 3), FiniteAttr("B", 3)});
  Mapping m = Mapping::FromTuple({Value("a"), Value("b")});
  auto ext = m.EnumerateExtension(s);
  ASSERT_TRUE(ext.ok());
  EXPECT_EQ(ext.value(), (std::vector<Tuple>{{Value("a"), Value("b")}}));
}

TEST(MappingTest, EnumerateExtensionVariables) {
  Schema s = Schema::Of({FiniteAttr("A", 2), FiniteAttr("B", 2)});
  Mapping m({Cell::Variable(0), Cell::Variable(1)});
  auto ext = m.EnumerateExtension(s);
  ASSERT_TRUE(ext.ok());
  EXPECT_EQ(Canon(ext.value()).size(), 4u);

  Mapping ident({Cell::Variable(0), Cell::Variable(0)});
  auto ident_ext = ident.EnumerateExtension(s);
  ASSERT_TRUE(ident_ext.ok());
  EXPECT_EQ(Canon(ident_ext.value()),
            (std::vector<Tuple>{{Value("a"), Value("a")},
                                {Value("b"), Value("b")}}));
}

TEST(MappingTest, EnumerateExtensionInfiniteDomainFails) {
  Schema s = StringPair();
  Mapping m({Cell::Variable(0), Cell::Constant(Value("y"))});
  EXPECT_FALSE(m.EnumerateExtension(s).ok());
}

TEST(MappingTest, EnumerateExtensionRespectsLimit) {
  Schema s = Schema::Of({FiniteAttr("A", 4), FiniteAttr("B", 4)});
  Mapping m({Cell::Variable(0), Cell::Variable(1)});
  EXPECT_FALSE(m.EnumerateExtension(s, /*limit=*/3).ok());
}

// A row's cells live in one immutable block that copies share
// (mapping.h).  Values here are longer than any short-string buffer, so
// a dangling cell would read freed heap memory, which ASan reports.
Mapping LongRow(int i) {
  return Mapping({Cell::Constant(Value("accession-number-" +
                                       std::to_string(100000 + i))),
                  Cell::Variable(0, {Value("excluded-value-of-row-" +
                                           std::to_string(i))}),
                  Cell::Constant(Value(int64_t{i}))});
}

TEST(MappingShareTest, CopySharesCells) {
  const Mapping orig = LongRow(1);
  const Mapping copy = orig;
  EXPECT_EQ(&copy.cell(0), &orig.cell(0));
  EXPECT_EQ(copy, orig);
  EXPECT_EQ(copy.Hash(), orig.Hash());
}

TEST(MappingShareTest, IdentityProjectShares) {
  const Mapping orig = LongRow(2);
  const Mapping same = orig.Project({0, 1, 2});
  EXPECT_EQ(&same.cell(0), &orig.cell(0));
  EXPECT_EQ(same, orig);
  const Mapping swapped = orig.Project({1, 0, 2});
  EXPECT_NE(&swapped.cell(2), &orig.cell(2));
  EXPECT_EQ(swapped.cell(2), orig.cell(2));
  const Mapping prefix = orig.Project({0, 1});
  EXPECT_EQ(prefix.arity(), 2u);
  EXPECT_NE(&prefix.cell(0), &orig.cell(0));
}

TEST(MappingShareTest, RebuiltRowIsEqualAndHashesEqual) {
  const Mapping orig = LongRow(3);
  Mapping::Builder cells(orig.arity());
  for (const Cell& c : orig.cells()) cells.Append(c);
  const Mapping rebuilt = std::move(cells).Build();
  EXPECT_NE(&rebuilt.cell(0), &orig.cell(0));
  EXPECT_EQ(rebuilt, orig);
  EXPECT_EQ(rebuilt.Hash(), orig.Hash());
  EXPECT_NE(rebuilt, LongRow(4));
  EXPECT_EQ(Mapping(), Mapping(std::vector<Cell>{}));
}

TEST(MappingShareTest, DecodedRowDoesNotAliasTheFrame) {
  CoverBatchMsg batch;
  batch.schema = Schema::Of({Attribute::String("A"), Attribute::String("B"),
                             Attribute("N", Domain::AllInts())});
  for (int i = 0; i < 8; ++i) batch.rows.push_back(LongRow(i));
  auto bytes = std::make_unique<std::string>(
      wire::EncodeMessage(Message{"a", "b", batch}));
  auto decoded = wire::DecodeMessage(*bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  bytes->assign(bytes->size(), 'X');
  bytes.reset();
  const auto& rows = std::get<CoverBatchMsg>(decoded.value().payload).rows;
  ASSERT_EQ(rows.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(rows[i], LongRow(i));
    EXPECT_EQ(rows[i].ToString(), LongRow(i).ToString());
  }
}

TEST(MappingShareTest, ConcurrentCopiesAcrossThreads) {
  // Copiers copy, hash and drop the rows of one shared table, so the
  // rows' reference counts change on several threads at once, while a
  // reader walks the cells; every copy still reads the original cells.
  auto table = std::make_shared<FreeTable>(Schema::Of(
      {Attribute::String("A"), Attribute::String("B"), Attribute("N", Domain::AllInts())}));
  for (int i = 0; i < 200; ++i) table->AddRow(LongRow(i));
  std::vector<size_t> hashes;
  for (const Mapping& row : table->rows()) hashes.push_back(row.Hash());
  std::shared_ptr<const FreeTable> shared = table;
  table.reset();

  constexpr int kCopiers = 3;
  constexpr int kRounds = 40;
  std::vector<int> mismatches(kCopiers + 1, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kCopiers; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<Mapping> copies(shared->rows().begin(),
                                    shared->rows().end());
        for (size_t r = 0; r < copies.size(); ++r) {
          if (copies[r].Hash() != hashes[r] ||
              &copies[r].cell(0) != &shared->rows()[r].cell(0)) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (int round = 0; round < kRounds; ++round) {
      for (size_t r = 0; r < shared->rows().size(); ++r) {
        const Mapping& row = shared->rows()[r];
        if (row.cell(0).value().AsString().rfind("accession-number-", 0) !=
                0 ||
            row.Hash() != hashes[r]) {
          ++mismatches[kCopiers];
        }
      }
    }
  });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches, std::vector<int>(kCopiers + 1, 0));
}

}  // namespace
}  // namespace hyperion
