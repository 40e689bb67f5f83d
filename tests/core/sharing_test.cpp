#include "core/sharing.hpp"

#include <gtest/gtest.h>

namespace sa::core {
namespace {

TEST(KnowledgeExchange, ImportsOnlyPublicKnowledge) {
  KnowledgeBase from, into;
  from.put_number("position", 4.0, 1.0, 1.0, Scope::Public);
  from.put_number("secret", 9.0, 1.0, 1.0, Scope::Private);
  EXPECT_EQ(KnowledgeExchange::import(from, "peerA", into), 1u);
  EXPECT_TRUE(into.contains("shared.peerA.position"));
  EXPECT_FALSE(into.contains("shared.peerA.secret"));
  EXPECT_DOUBLE_EQ(into.number("shared.peerA.position"), 4.0);
}

TEST(KnowledgeExchange, DiscountsConfidence) {
  KnowledgeBase from, into;
  from.put_number("x", 1.0, 0.0, 0.9, Scope::Public);
  KnowledgeExchange::import(from, "p", into);
  EXPECT_DOUBLE_EQ(into.confidence("shared.p.x"),
                   0.9 * KnowledgeExchange::kConfidenceDecay);
}

TEST(KnowledgeExchange, ImportedKnowledgeIsPrivate) {
  // No transitive gossip: what I learned about peer A is not part of MY
  // public self, so it will not be re-exported to peer B.
  KnowledgeBase a, b, c;
  a.put_number("x", 1.0, 0.0, 1.0, Scope::Public);
  KnowledgeExchange::import(a, "a", b);
  // b has no public items of its own.
  EXPECT_EQ(KnowledgeExchange::import(b, "b", c), 0u);
  EXPECT_FALSE(c.contains("shared.b.shared.a.x"));
}

TEST(KnowledgeExchange, NewerLocalCopyIsKept) {
  KnowledgeBase from, into;
  from.put_number("x", 1.0, /*time=*/5.0, 1.0, Scope::Public);
  into.put_number("shared.p.x", 99.0, /*time=*/7.0);
  EXPECT_EQ(KnowledgeExchange::import(from, "p", into), 0u);
  EXPECT_DOUBLE_EQ(into.number("shared.p.x"), 99.0);
}

TEST(KnowledgeExchange, FresherRemoteReplacesStaleLocal) {
  KnowledgeBase from, into;
  into.put_number("shared.p.x", 1.0, /*time=*/1.0);
  from.put_number("x", 2.0, /*time=*/3.0, 1.0, Scope::Public);
  EXPECT_EQ(KnowledgeExchange::import(from, "p", into), 1u);
  EXPECT_DOUBLE_EQ(into.number("shared.p.x"), 2.0);
}

TEST(KnowledgeExchange, ProvenanceNamesThePeer) {
  KnowledgeBase from, into;
  from.put_number("x", 1.0, 0.0, 1.0, Scope::Public);
  KnowledgeExchange::import(from, "cam7", into);
  const auto item = into.latest("shared.cam7.x");
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(item->source, "shared:cam7");
}

TEST(KnowledgeExchange, SharedKeyHelper) {
  EXPECT_EQ(KnowledgeExchange::shared_key("p1", "load"), "shared.p1.load");
}

}  // namespace
}  // namespace sa::core
