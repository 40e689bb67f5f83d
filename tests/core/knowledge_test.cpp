#include "core/knowledge.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

namespace sa::core {
namespace {

TEST(Value, AsNumberConvertsScalars) {
  EXPECT_DOUBLE_EQ(as_number(Value{true}), 1.0);
  EXPECT_DOUBLE_EQ(as_number(Value{false}), 0.0);
  EXPECT_DOUBLE_EQ(as_number(Value{std::int64_t{42}}), 42.0);
  EXPECT_DOUBLE_EQ(as_number(Value{3.5}), 3.5);
}

TEST(Value, AsNumberFallsBackForNonScalars) {
  EXPECT_DOUBLE_EQ(as_number(Value{std::string("abc")}, -1.0), -1.0);
  EXPECT_DOUBLE_EQ(as_number(Value{std::vector<double>{1.0}}, 9.0), 9.0);
}

TEST(Value, ToStringRendersEachAlternative) {
  EXPECT_EQ(to_string(Value{true}), "true");
  EXPECT_EQ(to_string(Value{std::int64_t{7}}), "7");
  EXPECT_EQ(to_string(Value{std::string("hi")}), "hi");
  EXPECT_EQ(to_string(Value{std::vector<double>{1.0, 2.0}}), "[1,2]");
}

TEST(Value, HoldsChecksAlternative) {
  EXPECT_TRUE(holds<double>(Value{1.0}));
  EXPECT_FALSE(holds<bool>(Value{1.0}));
}

TEST(KnowledgeBase, LatestReturnsMostRecent) {
  KnowledgeBase kb;
  kb.put_number("load", 1.0, 0.0);
  kb.put_number("load", 2.0, 1.0);
  const auto item = kb.latest("load");
  ASSERT_TRUE(item.has_value());
  EXPECT_DOUBLE_EQ(as_number(item->value), 2.0);
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
  kb.put("label",
          KnowledgeItem{Value{std::string("x")}, 0.0, 1.0, Scope::Private,
                        ""});
  EXPECT_DOUBLE_EQ(kb.number("label", 3.0), 3.0);
}

TEST(KnowledgeBase, HistoryPreservesOrder) {
  KnowledgeBase kb;
  for (int i = 0; i < 5; ++i) {
    kb.put_number("x", static_cast<double>(i), static_cast<double>(i));
  }
  const auto& hist = kb.history("x");
  ASSERT_EQ(hist.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(as_number(hist[static_cast<std::size_t>(i)].value), i);
  }
}

TEST(KnowledgeBase, HistoryIsBounded) {
  KnowledgeBase kb(3);
  for (int i = 0; i < 10; ++i) {
    kb.put_number("x", static_cast<double>(i), 0.0);
  }
  const auto& hist = kb.history("x");
  ASSERT_EQ(hist.size(), 3u);
  EXPECT_DOUBLE_EQ(as_number(hist.front().value), 7.0);  // oldest evicted
  EXPECT_DOUBLE_EQ(as_number(hist.back().value), 9.0);
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

TEST(KnowledgeBase, PrefixQuery) {
  KnowledgeBase kb;
  kb.put_number("peer.a.rel", 1.0, 0.0);
  kb.put_number("peer.b.rel", 1.0, 0.0);
  kb.put_number("forecast.x", 1.0, 0.0);
  kb.put_number("peer", 1.0, 0.0);
  const auto peers = kb.keys_with_prefix("peer.");
  EXPECT_EQ(peers,
            (std::vector<std::string>{"peer.a.rel", "peer.b.rel"}));
  EXPECT_TRUE(kb.keys_with_prefix("zzz").empty());
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

TEST(KnowledgeBase, ListenersFireOnPut) {
  KnowledgeBase kb;
  int calls = 0;
  std::string last_key;
  kb.subscribe([&](const std::string& key, const KnowledgeItem&) {
    ++calls;
    last_key = key;
  });
  kb.put_number("a", 1.0, 0.0);
  kb.put_number("b", 2.0, 0.0);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(last_key, "b");
}

TEST(KnowledgeBase, UnsubscribeStopsNotifications) {
  KnowledgeBase kb;
  int calls = 0;
  const auto handle =
      kb.subscribe([&](const std::string&, const KnowledgeItem&) { ++calls; });
  kb.put_number("a", 1.0, 0.0);
  kb.unsubscribe(handle);
  kb.put_number("a", 2.0, 0.0);
  EXPECT_EQ(calls, 1);
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
  item.value = Value{1.0};
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
  EXPECT_TRUE(kb.stale_keys("", 1e12).empty());
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
  item.value = Value{1.0};
  item.time = 0.0;
  item.ttl = 50.0;
  kb.put("long_lived", item);
  EXPECT_TRUE(kb.fresh("long_lived", 10.0));
  EXPECT_DOUBLE_EQ(kb.latest("long_lived")->ttl, 50.0);
}

TEST(KnowledgeBase, StaleKeysFiltersByPrefixAndSorts) {
  KnowledgeBase kb;
  kb.set_default_ttl(1.0);
  kb.put_number("sensor.b", 1.0, 0.0);
  kb.put_number("sensor.a", 1.0, 0.0);
  kb.put_number("sensor.c", 1.0, 9.5);  // still fresh at t=10
  kb.put_number("other.x", 1.0, 0.0);
  const auto stale = kb.stale_keys("sensor.", 10.0);
  ASSERT_EQ(stale.size(), 2u);
  EXPECT_EQ(stale[0], "sensor.a");
  EXPECT_EQ(stale[1], "sensor.b");
  EXPECT_EQ(kb.stale_keys("", 10.0).size(), 3u);  // other.x included
}

TEST(KnowledgeBase, ClearRemovesEverything) {
  KnowledgeBase kb;
  kb.put_number("x", 1.0, 0.0);
  kb.clear();
  EXPECT_EQ(kb.size(), 0u);
  EXPECT_FALSE(kb.contains("x"));
}

TEST(KnowledgeBase, CopyOutlivesOriginal) {
  // A copy owns its key table: looking keys up after the original is gone
  // must not touch the original's storage (run under ASan in CI).
  auto original = std::make_unique<KnowledgeBase>(4);
  original->put_number("a.long.key.name.beyond.small.string", 1.0, 0.0, 0.5,
                       Scope::Public, "a.long.source.name.beyond.sso");
  original->put("label", KnowledgeItem{Value{std::string("x")}, 1.0, 1.0,
                                       Scope::Private, ""});
  KnowledgeBase copy(*original);
  KnowledgeBase assigned;
  assigned = *original;
  original.reset();
  for (KnowledgeBase* kb : {&copy, &assigned}) {
    EXPECT_DOUBLE_EQ(kb->number("a.long.key.name.beyond.small.string"), 1.0);
    ASSERT_TRUE(kb->latest("label").has_value());
    EXPECT_EQ(std::get<std::string>(kb->latest("label")->value), "x");
    kb->put_number("a.long.key.name.beyond.small.string", 2.0, 1.0);
    kb->put_number("new", 3.0, 1.0);
    EXPECT_DOUBLE_EQ(kb->number("a.long.key.name.beyond.small.string"), 2.0);
    EXPECT_EQ(kb->keys(),
              (std::vector<std::string>{"a.long.key.name.beyond.small.string",
                                        "label", "new"}));
    EXPECT_EQ(kb->history("a.long.key.name.beyond.small.string")[0].source,
              "a.long.source.name.beyond.sso");
  }
}

TEST(KnowledgeBase, MovedToBaseKeepsItsKnowledge) {
  KnowledgeBase a;
  a.put_number("x", 1.0, 0.0);
  const auto before = a.incarnation();
  KnowledgeBase b(std::move(a));
  EXPECT_DOUBLE_EQ(b.number("x"), 1.0);
  EXPECT_NE(b.incarnation(), before);
  KnowledgeBase c;
  c = std::move(b);
  EXPECT_DOUBLE_EQ(c.number("x"), 1.0);
  c.put_number("y", 2.0, 1.0);
  EXPECT_EQ(c.keys(), (std::vector<std::string>{"x", "y"}));
}

TEST(KnowledgeBase, ScalarValuesRoundTripBitExactly) {
  KnowledgeBase kb;
  const std::vector<Value> values{
      Value{true},
      Value{false},
      Value{std::int64_t{-9007199254740993}},
      Value{-0.0},
      Value{std::numeric_limits<double>::quiet_NaN()},
      Value{std::numeric_limits<double>::denorm_min()},
  };
  for (std::size_t i = 0; i < values.size(); ++i) {
    kb.put("v", KnowledgeItem{values[i], static_cast<double>(i), 0.25,
                              Scope::Public, "src"});
  }
  const auto hist = kb.history("v");
  ASSERT_EQ(hist.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(hist[i].value.index(), values[i].index());
    if (const auto* d = std::get_if<double>(&values[i])) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(std::get<double>(hist[i].value)),
                std::bit_cast<std::uint64_t>(*d));
    } else {
      EXPECT_EQ(hist[i].value, values[i]);
    }
    EXPECT_EQ(hist[i].source, "src");
    EXPECT_EQ(hist[i].scope, Scope::Public);
    EXPECT_DOUBLE_EQ(hist[i].confidence, 0.25);
  }
  EXPECT_DOUBLE_EQ(kb.number("v"), std::numeric_limits<double>::denorm_min());
}

TEST(KnowledgeBase, NonScalarHistorySurvivesRingWrap) {
  // Strings and vectors live beside the ring; a wrapped ring must still
  // read back the newest values, interleaved with scalars, in order.
  KnowledgeBase kb(3);
  std::vector<Value> written;
  for (int i = 0; i < 20; ++i) {
    Value v;
    switch (i % 3) {
      case 0: v = Value{std::string(20 + i, static_cast<char>('a' + i))};
        break;
      case 1: v = Value{std::vector<double>(static_cast<std::size_t>(i), 1.5)};
        break;
      default: v = Value{static_cast<double>(i)};
        break;
    }
    written.push_back(v);
    kb.put("k", KnowledgeItem{v, static_cast<double>(i), 1.0,
                              Scope::Private, ""});
  }
  const auto hist = kb.history("k");
  ASSERT_EQ(hist.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(hist[i].value, written[written.size() - 3 + i]);
  }
}

TEST(KnowledgeBase, HistorylessStoreHandsListenersTheValue) {
  KnowledgeBase kb(0);
  std::vector<Value> seen;
  kb.subscribe([&](const std::string&, const KnowledgeItem& item) {
    seen.push_back(item.value);
  });
  kb.put("s", KnowledgeItem{Value{std::string("label")}, 0.0, 1.0,
                            Scope::Private, ""});
  kb.put_number("n", 2.5, 0.0);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], Value{std::string("label")});
  EXPECT_EQ(seen[1], Value{2.5});
  EXPECT_TRUE(kb.contains("s"));
  EXPECT_TRUE(kb.history("s").empty());
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

TEST(KnowledgeBase, ClearStartsANewIncarnation) {
  KnowledgeBase kb;
  KnowledgeIds ids;
  EXPECT_FALSE(ids.bind(kb, "proc"));  // first sight
  EXPECT_TRUE(ids.bind(kb, "proc"));
  kb.put_number(kb.key("x"), 1.0, 0.0, 1.0, Scope::Private, ids.source());
  EXPECT_EQ(kb.latest("x")->source, "proc");
  kb.clear();
  EXPECT_FALSE(ids.bind(kb, "proc"));  // cached ids must be re-resolved
  KnowledgeBase other;
  EXPECT_FALSE(ids.bind(other, "proc"));
  EXPECT_NE(other.incarnation(), kb.incarnation());
}

}  // namespace
}  // namespace sa::core
