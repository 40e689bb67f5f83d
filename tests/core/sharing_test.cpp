#include "core/sharing.hpp"

#include <gtest/gtest.h>

namespace sa::core {
namespace {

TEST(KnowledgeExchange, ImportsOnlyPublicKnowledge) {
  KnowledgeBase from, into;
  from.put_number(from.key("position"), 4.0, 1.0, 1.0, Scope::Public);
  from.put_number(from.key("secret"), 9.0, 1.0, 1.0, Scope::Private);
  EXPECT_EQ(KnowledgeExchange::import(from, "peerA", into), 1u);
  EXPECT_NE(into.find("shared.peerA.position"), KnowledgeBase::kNoKey);
  EXPECT_EQ(into.find("shared.peerA.secret"), KnowledgeBase::kNoKey);
  EXPECT_DOUBLE_EQ(into.number(into.find("shared.peerA.position")), 4.0);
}

TEST(KnowledgeExchange, DiscountsConfidence) {
  KnowledgeBase from, into;
  from.put_number(from.key("x"), 1.0, 0.0, 0.9, Scope::Public);
  KnowledgeExchange::import(from, "p", into);
  EXPECT_DOUBLE_EQ(into.confidence(into.find("shared.p.x")),
                   0.9 * KnowledgeExchange::kConfidenceDecay);
}

TEST(KnowledgeExchange, ImportedKnowledgeIsPrivate) {
  // No transitive gossip: what I learned about peer A is not part of MY
  // public self, so it will not be re-exported to peer B.
  KnowledgeBase a, b, c;
  a.put_number(a.key("x"), 1.0, 0.0, 1.0, Scope::Public);
  KnowledgeExchange::import(a, "a", b);
  // b has no public items of its own.
  EXPECT_EQ(KnowledgeExchange::import(b, "b", c), 0u);
  EXPECT_EQ(c.find("shared.b.shared.a.x"), KnowledgeBase::kNoKey);
}

TEST(KnowledgeExchange, NewerLocalCopyIsKept) {
  KnowledgeBase from, into;
  from.put_number(from.key("x"), 1.0, /*time=*/5.0, 1.0, Scope::Public);
  into.put_number(into.key("shared.p.x"), 99.0, /*time=*/7.0);
  EXPECT_EQ(KnowledgeExchange::import(from, "p", into), 0u);
  EXPECT_DOUBLE_EQ(into.number(into.find("shared.p.x")), 99.0);
}

TEST(KnowledgeExchange, FresherRemoteReplacesStaleLocal) {
  KnowledgeBase from, into;
  into.put_number(into.key("shared.p.x"), 1.0, /*time=*/1.0);
  from.put_number(from.key("x"), 2.0, /*time=*/3.0, 1.0, Scope::Public);
  EXPECT_EQ(KnowledgeExchange::import(from, "p", into), 1u);
  EXPECT_DOUBLE_EQ(into.number(into.find("shared.p.x")), 2.0);
}

TEST(KnowledgeExchange, ProvenanceNamesThePeer) {
  KnowledgeBase from, into;
  from.put_number(from.key("x"), 1.0, 0.0, 1.0, Scope::Public);
  KnowledgeExchange::import(from, "cam7", into);
  const auto item = into.latest(into.find("shared.cam7.x"));
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(item->source, "shared:cam7");
}

TEST(KnowledgeExchange, SharedKeyHelper) {
  EXPECT_EQ(KnowledgeExchange::shared_key("p1", "load"), "shared.p1.load");
}

}  // namespace
}  // namespace sa::core
