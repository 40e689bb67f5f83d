#include "core/knowledge.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

namespace sa::core {
namespace {

TEST(KnowledgeBase, LatestReturnsMostRecent) {
  KnowledgeBase kb;
  kb.put_number("load", 1.0, 0.0);
  kb.put_number("load", 2.0, 1.0);
  const auto item = kb.latest("load");
  ASSERT_TRUE(item.has_value());
  EXPECT_DOUBLE_EQ(item->value, 2.0);
  EXPECT_DOUBLE_EQ(item->time, 1.0);
}

TEST(KnowledgeBase, LatestOnUnknownKeyIsEmpty) {
  KnowledgeBase kb;
  EXPECT_FALSE(kb.latest("nothing").has_value());
  EXPECT_FALSE(kb.contains("nothing"));
}

TEST(KnowledgeBase, NumberFallsBack) {
  KnowledgeBase kb;
  EXPECT_DOUBLE_EQ(kb.number("missing", 7.5), 7.5);
}

TEST(KnowledgeBase, HistoryPreservesOrder) {
  KnowledgeBase kb;
  for (int i = 0; i < 5; ++i) {
    kb.put_number("x", static_cast<double>(i), static_cast<double>(i));
  }
  const auto& hist = kb.history("x");
  ASSERT_EQ(hist.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(hist[static_cast<std::size_t>(i)].value, i);
  }
}

TEST(KnowledgeBase, HistoryIsBounded) {
  KnowledgeBase kb(3);
  for (int i = 0; i < 10; ++i) {
    kb.put_number("x", static_cast<double>(i), 0.0);
  }
  const auto& hist = kb.history("x");
  ASSERT_EQ(hist.size(), 3u);
  EXPECT_DOUBLE_EQ(hist.front().value, 7.0);  // oldest evicted
  EXPECT_DOUBLE_EQ(hist.back().value, 9.0);
}

TEST(KnowledgeBase, ConfidenceOfLatest) {
  KnowledgeBase kb;
  EXPECT_DOUBLE_EQ(kb.confidence("x"), 0.0);
  kb.put_number("x", 1.0, 0.0, 0.4);
  EXPECT_DOUBLE_EQ(kb.confidence("x"), 0.4);
  kb.put_number("x", 1.0, 1.0, 0.9);
  EXPECT_DOUBLE_EQ(kb.confidence("x"), 0.9);
}

TEST(KnowledgeBase, KeysAreSorted) {
  KnowledgeBase kb;
  kb.put_number("b", 1.0, 0.0);
  kb.put_number("a", 1.0, 0.0);
  kb.put_number("c", 1.0, 0.0);
  EXPECT_EQ(kb.keys(), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(kb.size(), 3u);
}

TEST(KnowledgeBase, PublicSnapshotFiltersByScope) {
  KnowledgeBase kb;
  kb.put_number("private.x", 1.0, 0.0, 1.0, Scope::Private);
  kb.put_number("public.y", 2.0, 0.0, 1.0, Scope::Public);
  const auto snap = kb.public_snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].first, "public.y");
}

TEST(KnowledgeBase, PublicSnapshotUsesLatestScope) {
  KnowledgeBase kb;
  // A key whose latest write is private disappears from the public self.
  kb.put_number("x", 1.0, 0.0, 1.0, Scope::Public);
  kb.put_number("x", 2.0, 1.0, 1.0, Scope::Private);
  EXPECT_TRUE(kb.public_snapshot().empty());
}

TEST(KnowledgeBase, SourceAndProvenancePreserved) {
  KnowledgeBase kb;
  kb.put_number("x", 1.0, 2.0, 0.8, Scope::Public, "stimulus");
  const auto item = kb.latest("x");
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(item->source, "stimulus");
  EXPECT_EQ(item->scope, Scope::Public);
}

TEST(KnowledgeBase, ItemsAreFreshWithinTheirTtl) {
  KnowledgeBase kb;
  KnowledgeItem item;
  item.value = 1.0;
  item.time = 10.0;
  item.ttl = 5.0;
  kb.put("reading", item);
  EXPECT_TRUE(kb.fresh("reading", 10.0));
  EXPECT_TRUE(kb.fresh("reading", 15.0));  // exactly at the TTL boundary
  EXPECT_FALSE(kb.fresh("reading", 15.01));
  // Staleness is a signal, not an eviction: the item is still readable.
  EXPECT_DOUBLE_EQ(kb.number("reading"), 1.0);
  EXPECT_FALSE(kb.fresh("unknown", 0.0));
}

TEST(KnowledgeBase, InfiniteTtlNeverGoesStale) {
  KnowledgeBase kb;
  kb.put_number("constant", 1.0, 0.0);
  EXPECT_TRUE(kb.fresh("constant", 1e12));
}

TEST(KnowledgeBase, DefaultTtlIsStampedOntoNewItems) {
  KnowledgeBase kb;
  kb.put_number("before", 1.0, 0.0);
  kb.set_default_ttl(2.0);
  kb.put_number("after", 1.0, 0.0);
  // Items already stored keep the TTL they carried.
  EXPECT_TRUE(kb.fresh("before", 100.0));
  EXPECT_FALSE(kb.fresh("after", 100.0));
  ASSERT_TRUE(kb.latest("after").has_value());
  EXPECT_DOUBLE_EQ(kb.latest("after")->ttl, 2.0);
}

TEST(KnowledgeBase, ExplicitFiniteTtlWinsOverTheDefault) {
  KnowledgeBase kb;
  kb.set_default_ttl(2.0);
  KnowledgeItem item;
  item.value = 1.0;
  item.time = 0.0;
  item.ttl = 50.0;
  kb.put("long_lived", item);
  EXPECT_TRUE(kb.fresh("long_lived", 10.0));
  EXPECT_DOUBLE_EQ(kb.latest("long_lived")->ttl, 50.0);
}

TEST(KnowledgeBase, CopyOutlivesOriginal) {
  // A copy owns its key table: looking keys up after the original is gone
  // must not touch the original's storage (run under ASan in CI).
  auto original = std::make_unique<KnowledgeBase>(4);
  original->put_number("a.long.key.name.beyond.small.string", 1.0, 0.0, 0.5,
                       Scope::Public, "a.long.source.name.beyond.sso");
  original->put_number("label", 4.0, 1.0);
  KnowledgeBase copy(*original);
  original.reset();
  EXPECT_DOUBLE_EQ(copy.number("a.long.key.name.beyond.small.string"), 1.0);
  EXPECT_DOUBLE_EQ(copy.number("label"), 4.0);
  copy.put_number("a.long.key.name.beyond.small.string", 2.0, 1.0);
  copy.put_number("new", 3.0, 1.0);
  EXPECT_DOUBLE_EQ(copy.number("a.long.key.name.beyond.small.string"), 2.0);
  EXPECT_EQ(copy.keys(),
            (std::vector<std::string>{"a.long.key.name.beyond.small.string",
                                      "label", "new"}));
  EXPECT_EQ(copy.history("a.long.key.name.beyond.small.string")[0].source,
            "a.long.source.name.beyond.sso");
}

// A writer keeps the ids it resolved for as long as it lives, so a base
// is never replaced under it.
static_assert(!std::is_copy_assignable_v<KnowledgeBase>);
static_assert(!std::is_move_assignable_v<KnowledgeBase>);

TEST(KnowledgeBase, MovedToBaseKeepsItsKnowledge) {
  KnowledgeBase a;
  a.put_number("x", 1.0, 0.0);
  KnowledgeBase b(std::move(a));
  EXPECT_DOUBLE_EQ(b.number("x"), 1.0);
  b.put_number("y", 2.0, 1.0);
  EXPECT_EQ(b.keys(), (std::vector<std::string>{"x", "y"}));
}

TEST(KnowledgeBase, ScalarValuesRoundTripBitExactly) {
  KnowledgeBase kb;
  const std::vector<double> values{
      -0.0,
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
  };
  for (std::size_t i = 0; i < values.size(); ++i) {
    kb.put("v", KnowledgeItem{values[i], static_cast<double>(i), 0.25,
                              Scope::Public, "src"});
  }
  const auto hist = kb.history("v");
  ASSERT_EQ(hist.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(hist[i].value),
              std::bit_cast<std::uint64_t>(values[i]));
    EXPECT_EQ(hist[i].source, "src");
    EXPECT_EQ(hist[i].scope, Scope::Public);
    EXPECT_DOUBLE_EQ(hist[i].confidence, 0.25);
  }
  EXPECT_DOUBLE_EQ(kb.number("v"), std::numeric_limits<double>::denorm_min());
}

TEST(KnowledgeBase, NonScalarHistorySurvivesRingWrap) {
  // Every slot carries its own value, time and provenance; a wrapped ring
  // must read back the newest of them, in order, with nothing mixed up
  // between overwritten slots.
  KnowledgeBase kb(3);
  const char* sources[] = {"a", "b", "c"};
  for (int i = 0; i < 20; ++i) {
    kb.put("k", KnowledgeItem{0.5 * i, static_cast<double>(i), 1.0,
                              Scope::Private, sources[i % 3]});
  }
  const auto hist = kb.history("k");
  ASSERT_EQ(hist.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const int written = 17 + static_cast<int>(i);
    EXPECT_DOUBLE_EQ(hist[i].value, 0.5 * written);
    EXPECT_DOUBLE_EQ(hist[i].time, written);
    EXPECT_EQ(hist[i].source, sources[written % 3]);
  }
}

TEST(KnowledgeBase, HistorylessStoreRetainsNothing) {
  KnowledgeBase kb(0);
  kb.put("s", KnowledgeItem{1.0, 0.0, 1.0, Scope::Private, ""});
  kb.put_number("n", 2.5, 0.0);
  EXPECT_TRUE(kb.contains("s"));
  EXPECT_TRUE(kb.history("s").empty());
  EXPECT_FALSE(kb.latest("n").has_value());
  EXPECT_DOUBLE_EQ(kb.number("n", -1.0), -1.0);
}

TEST(KnowledgeBase, IdPathSharesTheStringPathStore) {
  KnowledgeBase kb;
  KnowledgeBase::KeyId cached = KnowledgeBase::kNoKey;
  const auto id = kb.key(cached, "forecast.", "load", ".mae");
  EXPECT_EQ(cached, id);
  EXPECT_EQ(kb.find("forecast.load.mae"), id);
  EXPECT_EQ(kb.key(cached, "ignored"), id);  // resolved ids are kept
  kb.put_number(id, 4.0, 1.0, 0.5, Scope::Public, kb.source_id("time"));
  EXPECT_DOUBLE_EQ(kb.number("forecast.load.mae"), 4.0);
  EXPECT_DOUBLE_EQ(kb.number(id), 4.0);
  EXPECT_EQ(kb.latest("forecast.load.mae")->source, "time");
  kb.put_number("forecast.load.mae", 5.0, 2.0);
  EXPECT_DOUBLE_EQ(kb.number(id), 5.0);
  EXPECT_EQ(kb.find("absent"), KnowledgeBase::kNoKey);
  EXPECT_DOUBLE_EQ(kb.number(KnowledgeBase::kNoKey, -1.0), -1.0);
}

}  // namespace
}  // namespace sa::core
