// Trace-export determinism: the --trace file written by the harness must
// be bitwise-identical whatever the thread count (the traced cell is fixed
// by convention — last variant, first seed — and its timestamps are pure
// sim-time), and every explanation rendered by the traced cell must cite
// trace ids resolvable in that file. Runs a reduced E2-style camera-fleet
// grid, the substrate with the most agents per cell.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/harness.hpp"
#include "svc/fleet.hpp"

namespace {

using namespace sa;

constexpr int kEpochs = 40;

exp::Grid fleet_grid(std::vector<std::string>* notes) {
  exp::Grid g;
  g.name = "svc.reduced";
  g.variants = {"homogeneous", "self-aware"};
  g.seeds = {31, 32};
  g.task = [notes](const exp::TaskContext& ctx) -> exp::TaskOutput {
    svc::NetworkParams np;
    np.objects = 12;
    np.seed = ctx.seed;
    auto net = svc::Network::clustered_layout(np);
    svc::CameraFleet::Params p;
    p.mode = ctx.variant == 0 ? svc::CameraFleet::Mode::Homogeneous
                              : svc::CameraFleet::Mode::Learning;
    p.seed = ctx.seed;
    p.telemetry = ctx.telemetry;
    p.tracer = ctx.tracer;
    svc::CameraFleet fleet(net, p);
    sim::RunningStats util;
    for (int e = 0; e < kEpochs; ++e) util.add(fleet.run_epoch().global_utility);
    if (ctx.tracer != nullptr && notes != nullptr) {
      // Collect the traced cell's rendered explanations for the citation
      // check (first learning camera is representative).
      for (const auto& e : fleet.agent(0).explainer().all()) {
        notes->push_back(e.render());
      }
    }
    return {{{"global_utility", util.mean()}}};
  };
  return g;
}

/// Runs the harness exactly as a bench binary would, with --jobs N and
/// --trace PATH, and returns the written file's bytes.
std::string run_with_jobs(const std::string& path, const char* jobs,
                          std::vector<std::string>* notes = nullptr) {
  const char* argv[] = {"trace_determinism", "--jobs", jobs,
                        "--trace", path.c_str()};
  exp::Harness h("trace_determinism", 5, argv);
  (void)h.run(fleet_grid(notes));
  std::ostringstream sink;  // swallow the footer
  EXPECT_EQ(h.finish(sink), 0);
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

TEST(TraceDeterminism, TraceFileIsBitwiseIdenticalAcrossJobCounts) {
  const std::string p1 = testing::TempDir() + "trace_jobs1.json";
  const std::string p4 = testing::TempDir() + "trace_jobs4.json";
  const std::string serial = run_with_jobs(p1, "1");
  const std::string parallel = run_with_jobs(p4, "4");
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
  std::remove(p1.c_str());
  std::remove(p4.c_str());
}

TEST(TraceDeterminism, TraceFileIsValidChromeTraceJson) {
  const std::string path = testing::TempDir() + "trace_shape.json";
  const std::string doc = run_with_jobs(path, "2");
  EXPECT_EQ(doc.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  EXPECT_NE(doc.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(doc.find("sa-sim"), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(doc.find("\"cat\":\"flow\""), std::string::npos);
  EXPECT_EQ(doc.back(), '\n');
  std::remove(path.c_str());
}

TEST(TraceDeterminism, TracedCellExplanationsCiteIdsResolvableInFile) {
  const std::string path = testing::TempDir() + "trace_cite.json";
  std::vector<std::string> notes;
  const std::string doc = run_with_jobs(path, "2", &notes);
  ASSERT_FALSE(notes.empty());
  std::size_t cited_checked = 0;
  for (const std::string& note : notes) {
    // "... Trace: decision #N from evidence #A, #B."
    const auto pos = note.find("Trace: decision #");
    ASSERT_NE(pos, std::string::npos) << note;
    std::size_t at = pos;
    while ((at = note.find('#', at)) != std::string::npos) {
      const std::string id = note.substr(at + 1,
                                         note.find_first_not_of(
                                             "0123456789", at + 1) -
                                             at - 1);
      ASSERT_FALSE(id.empty());
      // Decision/observation ids resolve to a span's args.trace_id;
      // stimulus chain ids resolve to flow events' "id". Close each probe
      // with the following delimiter so "1" cannot match "12".
      bool resolvable = false;
      for (const char* key : {"\"trace_id\":", "\"id\":"}) {
        for (const char* tail : {",", "}"}) {
          if (doc.find(key + id + tail) != std::string::npos) {
            resolvable = true;
          }
        }
      }
      EXPECT_TRUE(resolvable)
          << "id #" << id << " cited but not in trace file";
      ++cited_checked;
      ++at;
    }
  }
  EXPECT_GT(cited_checked, 0u);
  std::remove(path.c_str());
}

}  // namespace
