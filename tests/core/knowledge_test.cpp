#include "core/knowledge.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "support/key_names.hpp"

namespace sa::core {
namespace {

using test::support::key_names;

TEST(KnowledgeBase, LatestReturnsMostRecent) {
  KnowledgeBase kb;
  kb.put_number(kb.key("load"), 1.0, 0.0);
  kb.put_number(kb.key("load"), 2.0, 1.0);
  const auto item = kb.latest(kb.find("load"));
  ASSERT_TRUE(item.has_value());
  EXPECT_DOUBLE_EQ(item->value, 2.0);
  EXPECT_DOUBLE_EQ(item->time, 1.0);
}

TEST(KnowledgeBase, LatestOnUnknownKeyIsEmpty) {
  KnowledgeBase kb;
  EXPECT_FALSE(kb.latest(kb.find("nothing")).has_value());
  EXPECT_EQ(kb.find("nothing"), KnowledgeBase::kNoKey);
}

TEST(KnowledgeBase, NumberFallsBack) {
  KnowledgeBase kb;
  EXPECT_DOUBLE_EQ(kb.number(kb.find("missing"), 7.5), 7.5);
}

TEST(KnowledgeBase, HistoryPreservesOrder) {
  KnowledgeBase kb;
  for (int i = 0; i < 5; ++i) {
    kb.put_number(kb.key("x"), static_cast<double>(i), static_cast<double>(i));
  }
  const auto& hist = kb.history(kb.find("x"));
  ASSERT_EQ(hist.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(hist[static_cast<std::size_t>(i)].value, i);
  }
}

TEST(KnowledgeBase, HistoryIsBounded) {
  KnowledgeBase kb(3);
  for (int i = 0; i < 10; ++i) {
    kb.put_number(kb.key("x"), static_cast<double>(i), 0.0);
  }
  const auto& hist = kb.history(kb.find("x"));
  ASSERT_EQ(hist.size(), 3u);
  EXPECT_DOUBLE_EQ(hist.front().value, 7.0);  // oldest evicted
  EXPECT_DOUBLE_EQ(hist.back().value, 9.0);
}

TEST(KnowledgeBase, ConfidenceOfLatest) {
  KnowledgeBase kb;
  EXPECT_DOUBLE_EQ(kb.confidence(kb.find("x")), 0.0);
  kb.put_number(kb.key("x"), 1.0, 0.0, 0.4);
  EXPECT_DOUBLE_EQ(kb.confidence(kb.find("x")), 0.4);
  kb.put_number(kb.key("x"), 1.0, 1.0, 0.9);
  EXPECT_DOUBLE_EQ(kb.confidence(kb.find("x")), 0.9);
}

TEST(KnowledgeBase, KeysAreSorted) {
  KnowledgeBase kb;
  kb.put_number(kb.key("b"), 1.0, 0.0);
  kb.put_number(kb.key("a"), 1.0, 0.0);
  kb.put_number(kb.key("c"), 1.0, 0.0);
  EXPECT_EQ(key_names(kb), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(kb.size(), 3u);
}

TEST(KnowledgeBase, PublicSnapshotFiltersByScope) {
  KnowledgeBase kb;
  kb.put_number(kb.key("private.x"), 1.0, 0.0, 1.0, Scope::Private);
  kb.put_number(kb.key("public.y"), 2.0, 0.0, 1.0, Scope::Public);
  const auto snap = kb.public_snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].first, "public.y");
}

TEST(KnowledgeBase, PublicSnapshotUsesLatestScope) {
  KnowledgeBase kb;
  // A key whose latest write is private disappears from the public self.
  kb.put_number(kb.key("x"), 1.0, 0.0, 1.0, Scope::Public);
  kb.put_number(kb.key("x"), 2.0, 1.0, 1.0, Scope::Private);
  EXPECT_TRUE(kb.public_snapshot().empty());
}

TEST(KnowledgeBase, SourceAndProvenancePreserved) {
  KnowledgeBase kb;
  kb.put_number(kb.key("x"), 1.0, 2.0, 0.8, Scope::Public,
                kb.source_id("stimulus"));
  const auto item = kb.latest(kb.find("x"));
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(item->source, "stimulus");
  EXPECT_EQ(item->scope, Scope::Public);
}

TEST(KnowledgeBase, CopyOutlivesOriginal) {
  // A copy owns its key table: looking keys up after the original is gone
  // must not touch the original's storage (run under ASan in CI).
  const char* long_key = "a.long.key.name.beyond.small.string";
  auto original = std::make_unique<KnowledgeBase>(4);
  original->put_number(original->key(long_key), 1.0, 0.0, 0.5, Scope::Public,
                       original->source_id("a.long.source.name.beyond.sso"));
  original->put_number(original->key("label"), 4.0, 1.0);
  KnowledgeBase copy(*original);
  original.reset();
  EXPECT_DOUBLE_EQ(copy.number(copy.find(long_key)), 1.0);
  EXPECT_DOUBLE_EQ(copy.number(copy.find("label")), 4.0);
  copy.put_number(copy.key(long_key), 2.0, 1.0);
  copy.put_number(copy.key("new"), 3.0, 1.0);
  EXPECT_DOUBLE_EQ(copy.number(copy.find(long_key)), 2.0);
  EXPECT_EQ(key_names(copy),
            (std::vector<std::string>{long_key, "label", "new"}));
  EXPECT_EQ(copy.history(copy.find(long_key))[0].source,
            "a.long.source.name.beyond.sso");
}

// A writer keeps the ids it resolved for as long as it lives, so a base
// is never replaced under it.
static_assert(!std::is_copy_assignable_v<KnowledgeBase>);
static_assert(!std::is_move_assignable_v<KnowledgeBase>);

// Every read and write goes by KeyId: a name reaches a base only through
// key(), find() and source_id(), so no string-keyed call compiles.
template <typename K>
constexpr bool kNumberBy =
    requires(const KnowledgeBase& kb, K k) { kb.number(k); };
template <typename K>
constexpr bool kPutNumberBy =
    requires(KnowledgeBase& kb, K k) { kb.put_number(k, 1.0, 0.0); };
template <typename K>
constexpr bool kLatestBy =
    requires(const KnowledgeBase& kb, K k) { kb.latest(k); };
template <typename K>
constexpr bool kHistoryBy =
    requires(const KnowledgeBase& kb, K k) { kb.history(k); };
template <typename K>
constexpr bool kConfidenceBy =
    requires(const KnowledgeBase& kb, K k) { kb.confidence(k); };
static_assert(kNumberBy<KnowledgeBase::KeyId> && !kNumberBy<const char*>);
static_assert(kPutNumberBy<KnowledgeBase::KeyId> &&
              !kPutNumberBy<const char*>);
static_assert(kLatestBy<KnowledgeBase::KeyId> && !kLatestBy<const char*>);
static_assert(kHistoryBy<KnowledgeBase::KeyId> && !kHistoryBy<const char*>);
static_assert(kConfidenceBy<KnowledgeBase::KeyId> &&
              !kConfidenceBy<const char*>);
static_assert(!kNumberBy<std::string_view> && !kNumberBy<std::string>);

TEST(KnowledgeBase, MovedToBaseKeepsItsKnowledge) {
  KnowledgeBase a;
  a.put_number(a.key("x"), 1.0, 0.0);
  KnowledgeBase b(std::move(a));
  EXPECT_DOUBLE_EQ(b.number(b.find("x")), 1.0);
  b.put_number(b.key("y"), 2.0, 1.0);
  EXPECT_EQ(key_names(b), (std::vector<std::string>{"x", "y"}));
}

TEST(KnowledgeBase, ScalarValuesRoundTripBitExactly) {
  KnowledgeBase kb;
  const std::vector<double> values{
      -0.0,
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
  };
  for (std::size_t i = 0; i < values.size(); ++i) {
    kb.put_number(kb.key("v"), values[i], static_cast<double>(i), 0.25,
                  Scope::Public, kb.source_id("src"));
  }
  const auto hist = kb.history(kb.find("v"));
  ASSERT_EQ(hist.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(hist[i].value),
              std::bit_cast<std::uint64_t>(values[i]));
    EXPECT_EQ(hist[i].source, "src");
    EXPECT_EQ(hist[i].scope, Scope::Public);
    EXPECT_DOUBLE_EQ(hist[i].confidence, 0.25);
  }
  EXPECT_DOUBLE_EQ(kb.number(kb.find("v")),
                   std::numeric_limits<double>::denorm_min());
}

TEST(KnowledgeBase, NonScalarHistorySurvivesRingWrap) {
  // Every slot carries its own value, time and provenance; a wrapped ring
  // must read back the newest of them, in order, with nothing mixed up
  // between overwritten slots.
  KnowledgeBase kb(3);
  const char* sources[] = {"a", "b", "c"};
  for (int i = 0; i < 20; ++i) {
    kb.put_number(kb.key("k"), 0.5 * i, static_cast<double>(i), 1.0,
                  Scope::Private, kb.source_id(sources[i % 3]));
  }
  const auto hist = kb.history(kb.find("k"));
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
  kb.put_number(kb.key("s"), 1.0, 0.0);
  kb.put_number(kb.key("n"), 2.5, 0.0);
  EXPECT_NE(kb.find("s"), KnowledgeBase::kNoKey);
  EXPECT_TRUE(kb.history(kb.find("s")).empty());
  EXPECT_FALSE(kb.latest(kb.find("n")).has_value());
  EXPECT_DOUBLE_EQ(kb.number(kb.find("n"), -1.0), -1.0);
}

TEST(KnowledgeBase, ReadsNeverIntern) {
  KnowledgeBase kb;
  kb.put_number(kb.key("x"), 1.0, 0.0);
  const auto absent = kb.find("absent");
  EXPECT_EQ(absent, KnowledgeBase::kNoKey);
  EXPECT_DOUBLE_EQ(kb.number(absent, -1.0), -1.0);
  EXPECT_DOUBLE_EQ(kb.confidence(absent), 0.0);
  EXPECT_FALSE(kb.latest(absent).has_value());
  EXPECT_TRUE(kb.history(absent).empty());
  EXPECT_EQ(kb.size(), 1u);
  EXPECT_EQ(kb.name(kb.find("x")), "x");
}

TEST(KnowledgeBase, IdPathSharesTheStringPathStore) {
  KnowledgeBase kb;
  KnowledgeBase::KeyId cached = KnowledgeBase::kNoKey;
  const auto id = kb.key(cached, "forecast.", "load", ".mae");
  EXPECT_EQ(cached, id);
  EXPECT_EQ(kb.find("forecast.load.mae"), id);
  EXPECT_EQ(kb.key(cached, "ignored"), id);  // resolved ids are kept
  kb.put_number(id, 4.0, 1.0, 0.5, Scope::Public, kb.source_id("time"));
  EXPECT_DOUBLE_EQ(kb.number(kb.find("forecast.load.mae")), 4.0);
  EXPECT_DOUBLE_EQ(kb.number(id), 4.0);
  EXPECT_EQ(kb.latest(kb.find("forecast.load.mae"))->source, "time");
  kb.put_number(kb.key("forecast.load.mae"), 5.0, 2.0);
  EXPECT_DOUBLE_EQ(kb.number(id), 5.0);
  EXPECT_EQ(kb.find("absent"), KnowledgeBase::kNoKey);
  EXPECT_DOUBLE_EQ(kb.number(KnowledgeBase::kNoKey, -1.0), -1.0);
}

}  // namespace
}  // namespace sa::core
