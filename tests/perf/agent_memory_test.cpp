// Per-camera memory contract (`ctest -L perf`): every smart camera of the
// svc case study is its own self-aware agent, so what one agent's self-model
// costs, times the fleet, is most of a large world's heap. A camera that has
// run the 4 control epochs of a perfbench `metro` world must hold at most
// 16 KB of live heap: its agent, knowledge base, awareness processes,
// policy and explanations together. The bound is measured with glibc's
// mallinfo2(), which sanitizer allocators bypass, so the test skips itself
// under ASan/TSan and off glibc.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "svc/fleet.hpp"
#include "svc/network.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SA_HEAP_PROBE 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SA_HEAP_PROBE 0
#endif
#endif
#if !defined(SA_HEAP_PROBE) && defined(__GLIBC__)
#define SA_HEAP_PROBE 1
#endif
#ifndef SA_HEAP_PROBE
#define SA_HEAP_PROBE 0
#endif

#if SA_HEAP_PROBE
#include <malloc.h>
#endif

namespace sa::svc {
namespace {

constexpr std::size_t kCameras = 64;
constexpr std::size_t kEpochs = 4;
constexpr double kBytesPerCamera = 16.0 * 1024.0;

/// An 8x8 grid of overlapping cameras over the unit square.
Network grid_network() {
  std::vector<CameraSpec> cams;
  for (std::size_t i = 0; i < kCameras; ++i) {
    const double x = (static_cast<double>(i % 8) + 0.5) / 8.0;
    const double y = (static_cast<double>(i / 8) + 0.5) / 8.0;
    cams.push_back({{x, y}, 0.15, 6});
  }
  NetworkParams p;
  p.objects = 24;
  p.seed = 5;
  return Network(std::move(cams), p);
}

TEST(AgentMemory, LearningCameraHoldsAtMost16KB) {
#if !SA_HEAP_PROBE
  GTEST_SKIP() << "mallinfo2() does not see the sanitizer or non-glibc "
                  "allocator";
#else
  Network net = grid_network();
  const std::size_t before = mallinfo2().uordblks;
  CameraFleet fleet(net, {});
  for (std::size_t e = 0; e < kEpochs; ++e) fleet.run_epoch();
  const std::size_t after = mallinfo2().uordblks;
  const double per_camera =
      static_cast<double>(after - before) / static_cast<double>(kCameras);
  RecordProperty("bytes_per_camera", static_cast<int>(per_camera));
  EXPECT_LE(per_camera, kBytesPerCamera)
      << "a camera agent holds " << per_camera << " bytes after " << kEpochs
      << " epochs";
#endif
}

}  // namespace
}  // namespace sa::svc
