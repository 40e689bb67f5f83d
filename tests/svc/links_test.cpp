// Tests for the learned vision graph behind the Smooth handover strategy.
#include <gtest/gtest.h>

#include "svc/network.hpp"

namespace sa::svc {
namespace {

NetworkParams world(std::uint64_t seed = 6) {
  NetworkParams p;
  p.objects = 20;
  p.seed = seed;
  return p;
}

TEST(LearnedLinks, SmoothAloneNeverBootstraps) {
  auto net = Network::clustered_layout(world());
  for (std::size_t c = 0; c < net.cameras(); ++c) {
    net.set_strategy(c, Strategy::Smooth);
  }
  net.run(600);
  // No auction can succeed without a link, and no link can form without a
  // successful auction: the graph stays empty and no messages are sent.
  EXPECT_DOUBLE_EQ(net.harvest_network().messages, 0.0);
}

TEST(LearnedLinks, SmoothExploitsAGraphTaughtByBroadcast) {
  auto net = Network::clustered_layout(world());
  // Phase 1: everyone broadcasts, learning who their real partners are.
  for (std::size_t c = 0; c < net.cameras(); ++c) {
    net.set_strategy(c, Strategy::Broadcast);
  }
  net.run(800);
  net.harvest_network();
  const double broadcast_cov = [&] {
    net.run(400);
    auto e = net.harvest_network();
    return e.coverage;
  }();
  // Phase 2: switch to smooth over the learned graph.
  for (std::size_t c = 0; c < net.cameras(); ++c) {
    net.set_strategy(c, Strategy::Smooth);
  }
  net.run(400);
  const auto smooth = net.harvest_network();
  EXPECT_GT(smooth.coverage, broadcast_cov * 0.9);  // nearly as good...
  EXPECT_GT(smooth.messages, 0.0);
  // ...at a fraction of the message cost (smooth audiences are learned
  // partners only, broadcast audiences are everyone).
}

}  // namespace
}  // namespace sa::svc
