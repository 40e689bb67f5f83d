// Tests for the metrics JSONL export: header/rows/footer layout and the
// per-kind summary entries.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "exp/metrics_jsonl.hpp"

namespace sa::exp {
namespace {

using sim::MetricsRegistry;

std::vector<std::string> lines_of(const MetricsRegistry& reg) {
  std::ostringstream os;
  write_metrics_jsonl(os, reg);
  std::vector<std::string> lines;
  std::istringstream is(os.str());
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

TEST(MetricsJsonl, EmptyRegistryWritesHeaderAndFooterOnly) {
  MetricsRegistry reg;
  const auto lines = lines_of(reg);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0],
            "{\"schema\":1,\"kind\":\"metrics\",\"names\":[],\"kinds\":[]}");
  EXPECT_EQ(lines[1], "{\"summary\":{}}");
}

TEST(MetricsJsonl, HeaderListsNamesAndKindsInRegistrationOrder) {
  MetricsRegistry reg;
  reg.counter("ops");
  reg.gauge("level");
  reg.timer("step.ms");
  const auto lines = lines_of(reg);
  EXPECT_NE(lines[0].find("\"names\":[\"ops\",\"level\",\"step.ms\"]"),
            std::string::npos);
  EXPECT_NE(lines[0].find("\"kinds\":[\"counter\",\"gauge\",\"timer\"]"),
            std::string::npos);
}

TEST(MetricsJsonl, SnapshotsBecomeOneRowPerLine) {
  MetricsRegistry reg;
  const auto c = reg.counter("ops");
  reg.add(c, 3.0);
  reg.snapshot(1.0);
  reg.add(c);
  reg.snapshot(2.5);
  const auto lines = lines_of(reg);
  ASSERT_EQ(lines.size(), 4u);  // header + 2 rows + footer
  EXPECT_EQ(lines[1], "{\"t\":1.0,\"v\":[3.0]}");
  EXPECT_EQ(lines[2], "{\"t\":2.5,\"v\":[4.0]}");
}

TEST(MetricsJsonl, SummaryReportsValueOrObservationStatsByKind) {
  MetricsRegistry reg;
  const auto c = reg.counter("ops");
  const auto t = reg.timer("ms");
  reg.add(c, 7.0);
  reg.observe(t, 2.0);
  reg.observe(t, 4.0);
  const auto lines = lines_of(reg);
  const std::string& footer = lines.back();
  EXPECT_NE(footer.find("\"ops\":{\"kind\":\"counter\",\"value\":7.0}"),
            std::string::npos);
  EXPECT_NE(footer.find("\"ms\":{\"kind\":\"timer\",\"count\":2"),
            std::string::npos);
  EXPECT_NE(footer.find("\"mean\":3.0"), std::string::npos);
  EXPECT_NE(footer.find("\"min\":2.0"), std::string::npos);
  EXPECT_NE(footer.find("\"max\":4.0"), std::string::npos);
}

TEST(MetricsJsonl, OutputIsDeterministicForFixedInputs) {
  auto run = [] {
    MetricsRegistry reg;
    const auto g = reg.gauge("x");
    for (int i = 0; i < 10; ++i) {
      reg.set(g, i * 0.25);
      reg.snapshot(i);
    }
    std::ostringstream os;
    write_metrics_jsonl(os, reg);
    return os.str();
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace sa::exp
