// perfbench — one benchmark for the whole library, measured from outside
// through public calls.
//
//   perfbench --workload city|metro --seed N --seconds S --trace 0|1
//             [--refs perfbench/reference.txt]
//   perfbench --write-references > perfbench/reference.txt
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) hook the engine, count allocations and sample RSS, and report
// the per-layer metrics. Comment lines ("# ...") carry the host, every
// figure, and any fingerprint mismatch; the last line is one JSON object.
// Exits 1 on a fingerprint mismatch, 2 on bad usage or a non-Release build.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>

#include "workloads.hpp"

namespace {

using namespace perfbench;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// A JSON number with every digit; JSON has no NaN or infinity.
std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload city|metro --seed N "
               "--seconds S --trace 0|1 [--refs FILE]\n"
               "       perfbench --write-references\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  std::string refs_path = "perfbench/reference.txt";
  bool write_refs = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--write-references") {
      write_refs = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value after a flag");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) {
        return usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--refs") {
      refs_path = value;
    } else {
      return usage("unknown flag");
    }
  }

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::cout << "# host: nproc=" << std::thread::hardware_concurrency()
            << " cpu=\"" << cpu_model() << "\" compiler=\""
            << PERFBENCH_COMPILER << "\" build_type=" << build_type << "\n";
  if (build_type != "Release") {
    std::cerr << "perfbench: refusing to measure a '" << build_type
              << "' build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }

  try {
    if (write_refs) {
      write_references(std::cout);
      return 0;
    }
    if (args.workload.empty()) return usage("--workload is required");
    References refs;
    if (!refs.load(refs_path)) {
      std::cerr << "perfbench: cannot read references " << refs_path << "\n";
      return 2;
    }
    args.refs = &refs;
    const Outcome out = run_workload(args);

    std::cout << "# workload=" << args.workload << " seed=" << args.seed
              << " seconds=" << args.seconds << " trace=" << args.trace
              << " worlds=" << out.worlds << "\n";
    for (const std::string& m : out.mismatches) {
      std::cout << "# FINGERPRINT MISMATCH " << m << "\n";
    }
    const auto& reported = args.trace ? out.per_layer : out.end_to_end;
    for (const auto* group : {&reported, &out.figures}) {
      for (const Metric& m : *group) {
        std::cout << "# " << m.name << " = " << number(m.value) << " "
                  << m.unit << "\n";
      }
    }
    const bool correct = out.mismatches.empty();
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << out.attempted
              << ", \"failed\": " << out.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < reported.size(); ++i) {
      const Metric& m = reported[i];
      std::cout << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
                << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    }
    std::cout << "}}" << std::endl;
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
