// Example: a self-organising smart-camera network.
//
// Twelve cameras (a dense cluster plus an isolated ring) track two dozen
// objects. Each camera is its own SelfAwareAgent learning which handover
// strategy suits *its* situation — nobody coordinates them, and no camera
// sees the global picture. Watch the strategy assignment differentiate and
// the message bill drop while coverage holds.
//
// Run: ./build/examples/camera_network
#include <cstdio>

#include "svc/fleet.hpp"

int main() {
  using namespace sa::svc;

  NetworkParams world;
  world.objects = 24;
  world.seed = 2027;
  auto net = Network::clustered_layout(world);

  CameraFleet::Params fleet_params;
  fleet_params.mode = CameraFleet::Mode::Learning;
  fleet_params.epoch_steps = 25;
  fleet_params.seed = 2027;
  CameraFleet fleet(net, fleet_params);

  std::printf("epoch  coverage  msgs  diversity   strategies (B/S/P)\n");
  for (int epoch = 1; epoch <= 300; ++epoch) {
    const auto e = fleet.run_epoch();
    if (epoch % 30 == 0) {
      const auto hist = fleet.strategy_histogram();
      std::printf("%5d     %.3f  %4.0f      %.3f   %zu/%zu/%zu\n", epoch,
                  e.coverage, e.messages, fleet.diversity(), hist[0],
                  hist[1], hist[2]);
    }
  }

  std::printf("\nFinal per-camera strategies:\n");
  for (std::size_t c = 0; c < net.cameras(); ++c) {
    const auto& spec = net.spec(c);
    std::printf("  cam%-2zu at (%.2f, %.2f)  %-9s  [%s]\n", c, spec.pos.x,
                spec.pos.y, strategy_name(net.strategy(c)),
                c < 4 ? "cluster" : "ring");
  }

  std::printf("\nOne camera explains itself:\n  %s\n",
              fleet.agent(0).why_last().c_str());
  return 0;
}
