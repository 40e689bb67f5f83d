#include "sim/ring.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/rng.hpp"

namespace sa::sim {
namespace {

std::vector<int> contents(const Ring<int>& r) {
  return {r.begin(), r.end()};
}

// The model of an overwrite-oldest ring: a deque that drops its front
// whenever it would exceed the capacity.
void expect_matches(const Ring<std::string>& r,
                    const std::deque<std::string>& model, std::size_t cap) {
  ASSERT_EQ(r.size(), model.size());
  EXPECT_EQ(r.capacity(), cap);
  EXPECT_EQ(r.empty(), model.empty());
  for (std::size_t i = 0; i < model.size(); ++i) {
    EXPECT_EQ(r[i], model[i]);
    EXPECT_EQ(r.at(i), model[i]);
  }
  EXPECT_EQ(std::deque<std::string>(r.begin(), r.end()), model);
  if (!model.empty()) {
    EXPECT_EQ(r.front(), model.front());
    EXPECT_EQ(r.back(), model.back());
  }
  EXPECT_THROW((void)r.at(model.size()), std::out_of_range);
}

TEST(Ring, RandomOperationsMatchDequeModel) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    std::size_t cap = rng.below(6);
    Ring<std::string> r(cap);
    std::deque<std::string> model;
    for (int step = 0; step < 400; ++step) {
      const std::uint64_t op = rng.below(20);
      if (op < 16) {
        // Long enough to defeat the small-string buffer, so ASan sees the
        // heap storage of overwritten and moved items.
        std::string v = "item-" + std::to_string(step) +
                        std::string(24, static_cast<char>('a' + step % 26));
        model.push_back(v);
        if (model.size() > cap) model.pop_front();
        r.push(std::move(v));
      } else {
        r.clear();
        model.clear();
      }
      expect_matches(r, model, cap);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(Ring, ZeroCapacityStoresNothing) {
  Ring<int> r;
  EXPECT_EQ(r.capacity(), 0u);
  for (int i = 0; i < 5; ++i) r.push(i);
  EXPECT_TRUE(r.empty());
  EXPECT_TRUE(r.begin() == r.end());
  EXPECT_THROW((void)r.at(0), std::out_of_range);
}

TEST(Ring, OverwritesOldestOnceFull) {
  Ring<int> r(3);
  for (int i = 0; i < 7; ++i) r.push(i);
  EXPECT_EQ(contents(r), (std::vector<int>{4, 5, 6}));
  EXPECT_EQ(r.front(), 4);
  EXPECT_EQ(r.back(), 6);
}

TEST(Ring, IterationMatchesIndexing) {
  Ring<int> r(4);
  for (int i = 0; i < 10; ++i) {
    r.push(i * i);
    std::size_t k = 0;
    for (const int v : r) EXPECT_EQ(v, r[k++]);
    EXPECT_EQ(k, r.size());
  }
}

}  // namespace
}  // namespace sa::sim
