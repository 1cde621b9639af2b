// The three benchmark workloads (README.md gives why each exists and which
// metric each layer should move).
#pragma once

#include <string>

#include "common.hpp"

namespace perfbench {

void run_fib_churn(const Options& options, Report& report);
void run_table1_mix(const Options& options, Report& report);
void run_mesh_torus(const Options& options, Report& report);

/// Input digests: generate a workload's inputs for `seed` (and run length,
/// where the input size depends on it) without running anything.
[[nodiscard]] std::string fib_churn_digest(std::uint64_t seed, double seconds);
[[nodiscard]] std::string table1_mix_digest(std::uint64_t seed);
[[nodiscard]] std::string mesh_torus_digest(std::uint64_t seed);

}  // namespace perfbench
