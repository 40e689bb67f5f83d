#include "core/interaction.hpp"

#include <gtest/gtest.h>

namespace sa::core {
namespace {

TEST(InteractionAwareness, UnknownPeerHasZeroReliability) {
  InteractionAwareness ia;
  EXPECT_DOUBLE_EQ(ia.reliability("ghost"), 0.0);
  EXPECT_EQ(ia.interactions("ghost"), 0u);
  EXPECT_TRUE(ia.peers().empty());
}

TEST(InteractionAwareness, ReliabilityTracksSuccessRate) {
  InteractionAwareness ia;
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
  InteractionAwareness::Params p;
  p.alpha = 0.2;
  InteractionAwareness ia(p);
  for (int i = 0; i < 50; ++i) ia.record_interaction("n", true);
  for (int i = 0; i < 50; ++i) ia.record_interaction("n", false);
  EXPECT_LT(ia.reliability("n"), 0.05);  // the failures are recent
}

TEST(InteractionAwareness, PublishesPeerKnowledge) {
  InteractionAwareness ia;
  KnowledgeBase kb;
  for (int i = 0; i < 20; ++i) ia.record_interaction("n1", true, 2.0);
  ia.update(5.0, {}, kb);
  EXPECT_NEAR(kb.number("peer.n1.reliability"), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(kb.number("peer.n1.interactions"), 20.0);
  EXPECT_NEAR(kb.number("peer.n1.value"), 2.0, 1e-9);
}

TEST(InteractionAwareness, ConfidenceGrowsWithInteractions) {
  InteractionAwareness ia;
  KnowledgeBase kb;
  ia.record_interaction("n", true);
  ia.update(0.0, {}, kb);
  const double c1 = kb.confidence("peer.n.reliability");
  for (int i = 0; i < 50; ++i) ia.record_interaction("n", true);
  ia.update(1.0, {}, kb);
  const double c2 = kb.confidence("peer.n.reliability");
  EXPECT_GT(c2, c1);
  EXPECT_GT(c2, 0.95);
}

TEST(InteractionAwareness, PeersListsAllKnown) {
  InteractionAwareness ia;
  ia.record_interaction("b", true);
  ia.record_interaction("a", false);
  EXPECT_EQ(ia.peers(), (std::vector<std::string>{"a", "b"}));
}

TEST(InteractionAwareness, QualityReflectsEvidence) {
  InteractionAwareness ia;
  EXPECT_DOUBLE_EQ(ia.quality(), 1.0);  // no peers: neutral
  ia.record_interaction("n", true);
  const double q1 = ia.quality();
  for (int i = 0; i < 100; ++i) ia.record_interaction("n", true);
  EXPECT_GT(ia.quality(), q1);
}

TEST(InteractionAwareness, ReconfigureForgetsPeers) {
  InteractionAwareness ia;
  ia.record_interaction("n", true);
  ia.reconfigure();
  EXPECT_TRUE(ia.peers().empty());
  EXPECT_EQ(ia.interactions("n"), 0u);
}

TEST(InteractionAwareness, LevelAndName) {
  InteractionAwareness ia;
  EXPECT_EQ(ia.level(), Level::Interaction);
  EXPECT_EQ(ia.name(), "interaction");
}

}  // namespace
}  // namespace sa::core
