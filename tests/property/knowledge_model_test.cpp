// Property test: KnowledgeBase behaves like a reference model (a plain
// map of bounded vectors) under arbitrary operation sequences.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <string>

#include "core/knowledge.hpp"
#include "sim/rng.hpp"

namespace sa::core {
namespace {

class KnowledgeModelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KnowledgeModelTest, AgreesWithReferenceModel) {
  const std::size_t limit = 5;
  KnowledgeBase kb(limit);
  std::map<std::string, std::deque<double>> model;
  sim::Rng rng(GetParam());

  const std::vector<std::string> keys{"a", "b", "c.d", "c.e", "f"};
  for (int op = 0; op < 2000; ++op) {
    const auto& key = keys[rng.below(keys.size())];
    switch (rng.below(4)) {
      case 0:
      case 1: {  // put (weighted: writes dominate)
        const double v = rng.uniform(-100.0, 100.0);
        kb.put_number(kb.key(key), v, static_cast<double>(op));
        auto& hist = model[key];
        hist.push_back(v);
        if (hist.size() > limit) hist.pop_front();
        break;
      }
      case 2: {  // latest agrees
        const auto it = model.find(key);
        if (it == model.end()) {
          EXPECT_FALSE(kb.latest(kb.find(key)).has_value());
        } else {
          ASSERT_TRUE(kb.latest(kb.find(key)).has_value());
          EXPECT_DOUBLE_EQ(kb.latest(kb.find(key))->value,
                           it->second.back());
        }
        break;
      }
      case 3: {  // history agrees
        const auto& hist = kb.history(kb.find(key));
        const auto it = model.find(key);
        const std::size_t expected =
            it == model.end() ? 0 : it->second.size();
        ASSERT_EQ(hist.size(), expected);
        for (std::size_t i = 0; i < expected; ++i) {
          EXPECT_DOUBLE_EQ(hist[i].value, it->second[i]);
        }
        break;
      }
    }
  }
  // Final structural agreement.
  EXPECT_EQ(kb.size(), model.size());
  for (const auto& [key, hist] : model) {
    EXPECT_NE(kb.find(key), KnowledgeBase::kNoKey);
    EXPECT_DOUBLE_EQ(kb.number(kb.find(key)), hist.back());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnowledgeModelTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace sa::core
