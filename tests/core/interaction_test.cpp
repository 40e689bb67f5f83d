#include "core/interaction.hpp"

#include <gtest/gtest.h>

namespace sa::core {
namespace {

TEST(InteractionAwareness, UnknownPeerHasZeroReliability) {
  KnowledgeBase kb;
  InteractionAwareness ia(kb);
  EXPECT_DOUBLE_EQ(ia.reliability("ghost"), 0.0);
  EXPECT_EQ(ia.interactions("ghost"), 0u);
  EXPECT_TRUE(ia.peers().empty());
}

TEST(InteractionAwareness, ReliabilityTracksSuccessRate) {
  KnowledgeBase kb;
  InteractionAwareness ia(kb);
  for (int i = 0; i < 100; ++i) {
    ia.record_interaction("good", true);
    ia.record_interaction("bad", false);
    ia.record_interaction("mixed", i % 2 == 0);
  }
  EXPECT_NEAR(ia.reliability("good"), 1.0, 1e-9);
  EXPECT_NEAR(ia.reliability("bad"), 0.0, 1e-9);
  EXPECT_NEAR(ia.reliability("mixed"), 0.5, 0.1);
}

TEST(InteractionAwareness, RecentOutcomesDominate) {
  KnowledgeBase kb;
  InteractionAwareness ia(kb);
  for (int i = 0; i < 50; ++i) ia.record_interaction("n", true);
  for (int i = 0; i < 50; ++i) ia.record_interaction("n", false);
  EXPECT_LT(ia.reliability("n"), 0.05);  // the failures are recent
}

TEST(InteractionAwareness, PublishesPeerKnowledge) {
  KnowledgeBase kb;
  InteractionAwareness ia(kb);
  for (int i = 0; i < 20; ++i) ia.record_interaction("n1", true, 2.0);
  ia.update(5.0, {});
  EXPECT_NEAR(kb.number("peer.n1.reliability"), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(kb.number("peer.n1.interactions"), 20.0);
  EXPECT_NEAR(kb.number("peer.n1.value"), 2.0, 1e-9);
}

TEST(InteractionAwareness, ConfidenceGrowsWithInteractions) {
  KnowledgeBase kb;
  InteractionAwareness ia(kb);
  ia.record_interaction("n", true);
  ia.update(0.0, {});
  const double c1 = kb.confidence("peer.n.reliability");
  for (int i = 0; i < 50; ++i) ia.record_interaction("n", true);
  ia.update(1.0, {});
  const double c2 = kb.confidence("peer.n.reliability");
  EXPECT_GT(c2, c1);
  EXPECT_GT(c2, 0.95);
}

TEST(InteractionAwareness, PeersListsAllKnown) {
  KnowledgeBase kb;
  InteractionAwareness ia(kb);
  ia.record_interaction("b", true);
  ia.record_interaction("a", false);
  EXPECT_EQ(ia.peers(), (std::vector<std::string>{"a", "b"}));
}

TEST(InteractionAwareness, QualityReflectsEvidence) {
  KnowledgeBase kb;
  InteractionAwareness ia(kb);
  EXPECT_DOUBLE_EQ(ia.quality(), 1.0);  // no peers: neutral
  ia.record_interaction("n", true);
  const double q1 = ia.quality();
  for (int i = 0; i < 100; ++i) ia.record_interaction("n", true);
  EXPECT_GT(ia.quality(), q1);
}

TEST(InteractionAwareness, ReconfigureForgetsPeers) {
  KnowledgeBase kb;
  InteractionAwareness ia(kb);
  ia.record_interaction("n", true);
  ia.reconfigure();
  EXPECT_TRUE(ia.peers().empty());
  EXPECT_EQ(ia.interactions("n"), 0u);
}

TEST(InteractionAwareness, LevelAndName) {
  KnowledgeBase kb;
  InteractionAwareness ia(kb);
  EXPECT_EQ(ia.level(), Level::Interaction);
  EXPECT_EQ(ia.name(), "interaction");
}

}  // namespace
}  // namespace sa::core
