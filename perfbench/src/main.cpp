// perfbench — the repository benchmark binary (see ../README.md).
//
//   perfbench --workload <fib_churn|table1_mix|mesh_torus> --seed N
//             --seconds S --trace <0|1>
//
// Prints human-readable lines (build facts, input digest, sample counts,
// oracle verdicts, every metric with its unit) and, as the last line, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer ones.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "layers.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::Report;

bool parse(int argc, char** argv, Options& opt) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      opt.trace = std::strcmp(value, "1") == 0;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return have_workload && argc % 2 == 1 && opt.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <fib_churn|table1_mix|mesh_torus> "
                 "--seed N --seconds S --trace <0|1>\n");
    return 2;
  }
  std::printf("build: {\"build_type\": \"%s\", \"assertions\": %s, \"DIP_NATIVE\": %d, "
              "\"DIP_SIMD_CRYPTO\": %d, \"compiler\": \"%s\", \"timer\": "
              "\"std::chrono::steady_clock\"}\n",
              PERFBENCH_BUILD_TYPE,
#ifdef NDEBUG
              "false",
#else
              "true",
#endif
              PERFBENCH_DIP_NATIVE, PERFBENCH_DIP_SIMD_CRYPTO, PERFBENCH_COMPILER);
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  std::fflush(stdout);

  Report report;
  try {
    if (opt.workload == "fib_churn") {
      perfbench::run_fib_churn(opt, report);
    } else if (opt.workload == "table1_mix") {
      perfbench::run_table1_mix(opt, report);
    } else if (opt.workload == "mesh_torus") {
      perfbench::run_mesh_torus(opt, report);
    } else {
      std::fprintf(stderr, "unknown workload: %s\n", opt.workload.c_str());
      return 2;
    }
    if (opt.trace) {
      perfbench::comp_replay_leg(report, 1.5);
      perfbench::mac_leg(report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  for (const std::string& line : report.notes) std::printf("%s\n", line.c_str());
  const double failed_frac = report.attempted == 0
                                 ? 1.0
                                 : static_cast<double>(report.failed) /
                                       static_cast<double>(report.attempted);
  std::printf("ops_failed_frac = %.6g (%llu of %llu)\n", failed_frac,
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  bool finite = true;
  for (const auto& [name, m] : report.metrics) {
    std::printf("metric %-32s %.6g %s\n", name.c_str(), m.value, m.unit.c_str());
    finite = finite && std::isfinite(m.value);
  }
  if (!finite) {
    std::fprintf(stderr, "perfbench: a metric is not a finite number\n");
    return 1;
  }
  const bool correct = report.oracles_ok && report.failed == 0 && report.attempted > 0;
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(report.attempted);
  line += ", \"failed\": " + std::to_string(report.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : report.metrics) {
    // Per-layer metrics are named <layer>.<metric>; end-to-end ones have no
    // layer. Each mode reports only its own kind.
    if ((name.find('.') != std::string::npos) != opt.trace) continue;
    line += first ? "" : ", ";
    first = false;
    line += perfbench::format("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                              name.c_str(), m.value, m.unit.c_str());
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
