// A learning camera fleet's whole self-model, pinned to one digest.
//
// Every camera of the svc case study is a full-stack SelfAwareAgent. This
// test runs a fleet long enough that the meta level is past its 16-update
// grace period (and reconfigures a failing process) and stimulus awareness
// fires novelty events, then digests every agent's knowledge (every key and
// every retained item: value, time, confidence, scope and source), every
// rendered explanation, and each agent's self-description (which prints
// every process's quality). Any change to what an agent observes, derives,
// decides or explains moves the digest; a change to how a checkpoint
// encodes knowledge does not.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "svc/fleet.hpp"
#include "svc/network.hpp"
#include "support/fingerprint.hpp"

namespace sa::svc {
namespace {

constexpr std::size_t kEpochs = 48;

TEST(CameraFleet, LearningTrajectoryIsPinned) {
  NetworkParams np;
  np.objects = 16;
  np.seed = 11;
  auto net = Network::clustered_layout(np);
  CameraFleet fleet(net, {});
  for (std::size_t e = 0; e < kEpochs; ++e) fleet.run_epoch();

  test::support::Fingerprint fp;
  std::size_t novel = 0, reconfigured = 0, explanations = 0;
  for (std::size_t c = 0; c < fleet.cameras(); ++c) {
    core::SelfAwareAgent& agent = fleet.agent(c);
    const core::KnowledgeBase& kb = agent.knowledge();
    for (const core::KnowledgeBase::KeyId id : kb.ids()) {
      const std::string_view key = kb.name(id);
      fp.add(key);
      for (const core::KnowledgeItem& item : kb.history(id)) {
        fp.add(item.value);
        fp.add(item.time);
        fp.add(item.confidence);
        fp.add(static_cast<std::size_t>(item.scope));
        fp.add(item.source);
      }
      novel += key.ends_with(".novel");
      reconfigured += key.ends_with(".reconfigured");
    }
    for (std::size_t i = 0; i < agent.explainer().size(); ++i) {
      fp.add(agent.render(agent.explainer().at(i)));
      ++explanations;
    }
    fp.add(agent.describe());
  }
  // The run must reach the paths the digest is meant to cover.
  EXPECT_GT(novel, 0u) << "no stimulus novelty event fired";
  EXPECT_GT(reconfigured, 0u) << "the meta level reconfigured nothing";
  EXPECT_EQ(explanations, fleet.cameras() * kEpochs);
  EXPECT_EQ(fp.value(), 0xe59cb9e2993776baull) << std::hex << "digest 0x" << fp.value();
}

TEST(CameraFleet, E2LearningRunIsPinned) {
  // E2's learning fleet (24 objects, seed 31) for 100 epochs: the digest
  // covers every epoch record and the strategies the cameras settle on, so
  // it moves with the network's visibility threshold, message cost,
  // handover bonus, re-detection chance and hotspot.
  NetworkParams np;
  np.objects = 24;
  np.seed = 31;
  auto net = Network::clustered_layout(np);
  CameraFleet::Params fleet_params;
  fleet_params.seed = 31;
  CameraFleet fleet(net, fleet_params);
  test::support::Fingerprint fp;
  for (int e = 0; e < 100; ++e) {
    const NetworkEpoch ne = fleet.run_epoch();
    for (double v : {ne.steps, ne.coverage, ne.mean_visibility, ne.messages,
                     ne.global_utility}) {
      fp.add(v);
    }
  }
  for (std::size_t c = 0; c < net.cameras(); ++c) {
    fp.add(static_cast<std::size_t>(net.strategy(c)));
  }
  fp.add(fleet.diversity());
  EXPECT_EQ(fp.value(), 0xff6645382eabf0e5ull)
      << std::hex << "digest 0x" << fp.value();
}

}  // namespace
}  // namespace sa::svc
