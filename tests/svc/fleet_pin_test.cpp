// A learning camera fleet's whole self-model, pinned to one digest.
//
// Every camera of the svc case study is a full-stack SelfAwareAgent. This
// test runs a fleet long enough that the meta level is past its 16-update
// grace period (and reconfigures a failing process) and stimulus awareness
// fires novelty events, then digests
// (FNV-1a 64) every agent's knowledge image (ckpt::save_knowledge: every
// key, every retained slot), every rendered explanation, and each agent's
// self-description (which prints every process's quality). Any change to
// what an agent observes, derives, decides or explains moves the digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "ckpt/state.hpp"
#include "svc/fleet.hpp"
#include "svc/network.hpp"

namespace sa::svc {
namespace {

constexpr std::size_t kEpochs = 48;

void mix(std::uint64_t& h, const std::string& bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
}

TEST(CameraFleet, LearningTrajectoryIsPinned) {
  NetworkParams np;
  np.objects = 16;
  np.seed = 11;
  auto net = Network::clustered_layout(np);
  CameraFleet fleet(net, {});
  for (std::size_t e = 0; e < kEpochs; ++e) fleet.run_epoch();

  std::uint64_t h = 14695981039346656037ull;
  std::size_t novel = 0, reconfigured = 0, explanations = 0;
  for (std::size_t c = 0; c < fleet.cameras(); ++c) {
    core::SelfAwareAgent& agent = fleet.agent(c);
    ckpt::Buffer kb;
    ckpt::save_knowledge(agent.knowledge(), kb);
    mix(h, kb.data());
    for (const core::Explanation& e : agent.explainer().all()) {
      mix(h, e.render());
      ++explanations;
    }
    mix(h, agent.describe());
    for (const std::string& key : agent.knowledge().keys()) {
      const auto ends_with = [&key](std::string_view tail) {
        return key.size() >= tail.size() &&
               key.compare(key.size() - tail.size(), tail.size(), tail) == 0;
      };
      novel += ends_with(".novel");
      reconfigured += ends_with(".reconfigured");
    }
  }
  // The run must reach the paths the digest is meant to cover.
  EXPECT_GT(novel, 0u) << "no stimulus novelty event fired";
  EXPECT_GT(reconfigured, 0u) << "the meta level reconfigured nothing";
  EXPECT_EQ(explanations, fleet.cameras() * kEpochs);
  EXPECT_EQ(h, 0xb89b4abad72dd0c7ull) << std::hex << "digest 0x" << h;
}

}  // namespace
}  // namespace sa::svc
