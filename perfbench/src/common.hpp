// Shared plumbing for the perfbench workloads: the steady clock, quantile,
// slice and digest helpers, and the metric sink every workload fills.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "dip/bytes/time.hpp"

namespace dip {
namespace bytes {}
namespace core {}
namespace crypto {}
namespace ctrl {}
namespace fib {}
namespace mesh {}
namespace ndn {}
namespace netsim {}
namespace opt {}
namespace refmodel {}
namespace telemetry {}
namespace xia {}
}  // namespace dip

namespace perfbench {

namespace bytes = dip::bytes;
namespace core = dip::core;
namespace crypto = dip::crypto;
namespace ctrl = dip::ctrl;
namespace fib = dip::fib;
namespace mesh = dip::mesh;
namespace ndn = dip::ndn;
namespace netsim = dip::netsim;
namespace opt = dip::opt;
namespace refmodel = dip::refmodel;
namespace telemetry = dip::telemetry;
namespace xia = dip::xia;
using dip::SimTime;

/// Nanoseconds on std::chrono::steady_clock.
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// Quantile q in [0,1] by linear interpolation between closest ranks (the
/// numpy "linear" / Hyndman-Fan type 7 definition). Reorders `samples`;
/// 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double>& samples, double q);

/// Median of `samples` (reorders it).
[[nodiscard]] inline double median(std::vector<double>& samples) {
  return quantile(samples, 0.5);
}

/// The run-level figures of a series measured in slices of about kSliceNs.
///
/// The shared 4-vCPU VM the bounds were measured on runs the same code at
/// speeds up to 1.8x apart for seconds at a time (other tenants on the
/// cores; a plain spin loop shows the same steps), so a run-level median
/// lands on whichever speed held for most of a run. Each slice is therefore
/// summarised on its own, and the run reports its fast decile: the 90th
/// percentile of slice rates and the 10th percentile of slice latency
/// percentiles. A slower program is slower in every slice, so the figures
/// still move with the code.
class SliceSeries {
 public:
  /// Close one slice: `count` events in `seconds`, plus the latency samples
  /// taken in it (consumed and cleared; p99 wants >= 1000 of them).
  void close(double count, double seconds, std::vector<double>* latencies = nullptr);

  [[nodiscard]] double rate() const;  ///< p90 of slice rates
  [[nodiscard]] double p50() const;   ///< p10 of slice medians
  [[nodiscard]] double p99() const;   ///< p10 of slice p99s
  [[nodiscard]] std::size_t slices() const noexcept { return rates_.size(); }
  /// "<what>: rate p10/p50/p90 ... over N slices (>= k samples per slice)".
  [[nodiscard]] std::string summary(const char* what) const;

 private:
  std::vector<double> rates_, p50s_, p99s_;
  std::size_t min_samples_ = 0;
};

/// FNV-1a over 64-bit words and byte runs: the input digest each workload
/// prints so that a seed's inputs can be compared across runs.
class Digest {
 public:
  void add(std::uint64_t word) noexcept;
  void add(std::span<const std::uint8_t> bytes) noexcept;
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Peak resident set size of this process so far (MiB, from getrusage).
[[nodiscard]] double peak_rss_mb();

/// Seeded splitmix64 stream for input generation.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : state_(seed ^ 0x9e3779b97f4a7c15ull) {}
  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) noexcept { return next() % n; }
  /// True with probability `p`.
  bool chance(double p) noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53 < p;
  }

 private:
  std::uint64_t state_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// What one run reports: the metrics of its mode, the operation ledger the
/// correctness oracles fill, and human-readable notes (sample counts,
/// digests, oracle verdicts) printed before the result line.
struct Report {
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool oracles_ok = true;
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
  /// Record an oracle verdict; a failed check marks the run incorrect.
  void check(const std::string& oracle, bool ok, const std::string& detail = {});
};

/// Moves the calling thread to the next CPU of the process's affinity set:
/// the workloads step it at every set-up and every slice. On the VM the
/// bounds were measured on, contention from other tenants sits on one CPU
/// at a time and lasts longer than a run, so a thread left on one CPU makes
/// whole runs fast or slow; stepping makes every run sample every CPU.
class CpuRotation {
 public:
  CpuRotation();
  void next();

 private:
  std::vector<int> cpus_;
  std::size_t at_ = 0;
};

/// Width of the measurement slices (see SliceSeries), which the
/// stats-overhead legs also alternate over.
inline constexpr std::uint64_t kSliceNs = 100'000'000;

/// Printf-style helper for notes.
[[nodiscard]] std::string format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
