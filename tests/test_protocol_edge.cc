// Edge cases of the distributed protocol: acquaintance hops with no
// curated tables, covers over subsets of the endpoint attributes, and
// the eos message of a partition that never joins a row.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/containment.h"
#include "core/cover_engine.h"
#include "p2p/network.h"
#include "p2p/peer.h"
#include "p2p/wire.h"
#include "test_util.h"

namespace hyperion {
namespace {

MappingTable Chain(const std::string& name, const std::string& x,
                   const std::string& y,
                   std::initializer_list<std::pair<const char*, const char*>>
                       pairs) {
  MappingTable t =
      MappingTable::Create(Schema::Of({Attribute::String(x)}),
                           Schema::Of({Attribute::String(y)}), name)
          .value();
  for (const auto& [a, b] : pairs) {
    EXPECT_TRUE(t.AddPair({Value(a)}, {Value(b)}).ok());
  }
  return t;
}

TEST(ProtocolEdgeTest, EmptyHopSplitsThePathButStillCompletes) {
  // p1 --ab--> p2 -- (no tables) --> p3 --cd--> p4: the cover is the
  // Cartesian product of the two independent segments' contributions.
  SimNetwork net;
  PeerNode p1("p1", AttributeSet::Of({Attribute::String("A")}));
  PeerNode p2("p2", AttributeSet::Of({Attribute::String("B")}));
  PeerNode p3("p3", AttributeSet::Of({Attribute::String("C")}));
  PeerNode p4("p4", AttributeSet::Of({Attribute::String("D")}));
  for (PeerNode* p : {&p1, &p2, &p3, &p4}) {
    ASSERT_TRUE(p->Attach(&net).ok());
  }
  MappingTable ab = Chain("ab", "A", "B", {{"a1", "b1"}, {"a2", "b2"}});
  MappingTable cd = Chain("cd", "C", "D", {{"c1", "d1"}});
  ASSERT_TRUE(p1.AddConstraintTo("p2", MappingConstraint(ab)).ok());
  ASSERT_TRUE(p3.AddConstraintTo("p4", MappingConstraint(cd)).ok());
  // p2 -> p3: acquainted with no tables; forwarding must still work.

  auto session = p1.StartCoverSession({"p1", "p2", "p3", "p4"},
                                      {Attribute::String("A")},
                                      {Attribute::String("D")});
  ASSERT_TRUE(session.ok()) << session.status();
  ASSERT_TRUE(net.Run().ok());
  auto result = p1.GetResult(session.value());
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result.value()->done);
  ASSERT_TRUE(result.value()->error.ok()) << result.value()->error;
  // A constrained by the ab partition's X projection {a1, a2}; D by cd's
  // Y projection {d1}.
  EXPECT_EQ(result.value()->cover.size(), 2u);
  EXPECT_TRUE(
      result.value()->cover.SatisfiesTuple({Value("a1"), Value("d1")}));
  EXPECT_TRUE(
      result.value()->cover.SatisfiesTuple({Value("a2"), Value("d1")}));
  EXPECT_FALSE(
      result.value()->cover.SatisfiesTuple({Value("a9"), Value("d1")}));

  // Centralized agreement.
  auto path = ConstraintPath::Create(
                  {AttributeSet::Of({Attribute::String("A")}),
                   AttributeSet::Of({Attribute::String("B")}),
                   AttributeSet::Of({Attribute::String("C")}),
                   AttributeSet::Of({Attribute::String("D")})},
                  {{MappingConstraint(ab)}, {}, {MappingConstraint(cd)}})
                  .value();
  CoverEngine engine;
  auto central = engine.ComputeCover(path, {"A"}, {"D"});
  ASSERT_TRUE(central.ok());
  EXPECT_TRUE(
      TablesEquivalent(result.value()->cover, central.value()).value());
}

TEST(ProtocolEdgeTest, EndpointSubsetsAndUnconstrainedAttributes) {
  // Peers carry extra attributes; the cover asks only about a subset, and
  // one requested attribute is unconstrained (appears in no table).
  SimNetwork net;
  PeerNode p1("p1", AttributeSet::Of({Attribute::String("A"),
                                      Attribute::String("A_extra")}));
  PeerNode p2("p2", AttributeSet::Of({Attribute::String("B")}));
  PeerNode p3("p3", AttributeSet::Of({Attribute::String("C"),
                                      Attribute::String("C_extra")}));
  for (PeerNode* p : {&p1, &p2, &p3}) {
    ASSERT_TRUE(p->Attach(&net).ok());
  }
  MappingTable ab = Chain("ab", "A", "B", {{"a1", "b1"}});
  MappingTable bc = Chain("bc", "B", "C", {{"b1", "c1"}});
  ASSERT_TRUE(p1.AddConstraintTo("p2", MappingConstraint(ab)).ok());
  ASSERT_TRUE(p2.AddConstraintTo("p3", MappingConstraint(bc)).ok());

  auto session = p1.StartCoverSession(
      {"p1", "p2", "p3"},
      {Attribute::String("A"), Attribute::String("A_extra")},
      {Attribute::String("C")});
  ASSERT_TRUE(session.ok()) << session.status();
  ASSERT_TRUE(net.Run().ok());
  auto result = p1.GetResult(session.value());
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result.value()->error.ok()) << result.value()->error;
  // A_extra is unconstrained: any value rides along.
  EXPECT_TRUE(result.value()->cover.SatisfiesTuple(
      {Value("a1"), Value("whatever"), Value("c1")}));
  EXPECT_FALSE(result.value()->cover.SatisfiesTuple(
      {Value("a2"), Value("whatever"), Value("c1")}));
}

// The eos messages p2 delivers to p1 in a session over p1 -> p2 -> p3
// -> p4 whose middle join at p2 is empty: p3 starts the partition that
// ends at p2, and none of its rows joins p2's table.  With `split`, p2's
// table starts from a second attribute, Bx, so p2 is that partition's
// terminal and its eos is a FinalRows; otherwise p2 is a middle hop and
// streams a CoverBatch on to p1.
std::vector<Message> EosDeliveredToP1FromP2(bool split) {
  SimNetwork sim(testing_util::SimChain::Options(10'000, 1'000));
  testing_util::TappedNetwork net(sim);
  std::vector<Message> eos;
  net.SetObserver([&](const Message& msg) {
    if (msg.from != "p2" || msg.to != "p1") return;
    const auto* batch = std::get_if<CoverBatchMsg>(&msg.payload);
    const auto* final_rows = std::get_if<FinalRowsMsg>(&msg.payload);
    if ((batch != nullptr && batch->eos) ||
        (final_rows != nullptr && final_rows->eos)) {
      eos.push_back(msg);
    }
  });
  PeerNode p1("p1", AttributeSet::Of({Attribute::String("A")}));
  PeerNode p2("p2", split ? AttributeSet::Of({Attribute::String("B"),
                                              Attribute::String("Bx")})
                          : AttributeSet::Of({Attribute::String("B")}));
  PeerNode p3("p3", AttributeSet::Of({Attribute::String("C")}));
  PeerNode p4("p4", AttributeSet::Of({Attribute::String("D")}));
  for (PeerNode* p : {&p1, &p2, &p3, &p4}) {
    EXPECT_TRUE(p->Attach(&net).ok());
  }
  EXPECT_TRUE(p1.AddConstraintTo("p2", MappingConstraint(Chain(
                                           "ab", "A", "B", {{"a1", "b1"}})))
                  .ok());
  EXPECT_TRUE(p2.AddConstraintTo(
                    "p3", MappingConstraint(Chain("bc", split ? "Bx" : "B",
                                                  "C", {{"b1", "c9"}})))
                  .ok());
  EXPECT_TRUE(p3.AddConstraintTo("p4", MappingConstraint(Chain(
                                           "cd", "C", "D", {{"c1", "d1"}})))
                  .ok());
  auto session = p1.StartCoverSession({"p1", "p2", "p3", "p4"},
                                      {Attribute::String("A")},
                                      {Attribute::String("D")});
  EXPECT_TRUE(session.ok()) << session.status();
  EXPECT_TRUE(sim.Run().ok());
  auto result = p1.GetResult(session.value());
  EXPECT_TRUE(result.ok() && result.value()->done);
  if (result.ok()) {
    EXPECT_TRUE(result.value()->error.ok()) << result.value()->error;
    EXPECT_TRUE(result.value()->cover.empty());
  }
  return eos;
}

// Wire sizes of the two eos messages below, with an empty schema and no
// rows; a schema made before any row joins would grow them.
constexpr size_t kCoverBatchEosBytes = 47;
constexpr size_t kFinalRowsEosBytes = 56;

// A partition makes its streaming schema only when its first joined row
// appears, so the eos of one that never joins a row carries an empty
// schema.
TEST(ProtocolEdgeTest, EosOfAPartitionThatNeverJoinsCarriesAnEmptySchema) {
  const std::vector<Message> batches = EosDeliveredToP1FromP2(false);
  ASSERT_EQ(batches.size(), 1u);
  const auto& batch = std::get<CoverBatchMsg>(batches[0].payload);
  EXPECT_EQ(batch.schema.arity(), 0u);
  EXPECT_TRUE(batch.rows.empty());
  EXPECT_EQ(wire::EncodeMessage(batches[0]).size(), kCoverBatchEosBytes);

  const std::vector<Message> finals = EosDeliveredToP1FromP2(true);
  ASSERT_EQ(finals.size(), 1u);
  const auto& final_rows = std::get<FinalRowsMsg>(finals[0].payload);
  EXPECT_EQ(final_rows.schema.arity(), 0u);
  EXPECT_TRUE(final_rows.rows.empty());
  EXPECT_FALSE(final_rows.satisfiable);
  EXPECT_EQ(wire::EncodeMessage(finals[0]).size(), kFinalRowsEosBytes);
}

}  // namespace
}  // namespace hyperion
