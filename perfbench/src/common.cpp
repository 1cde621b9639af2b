#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace perfbench {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double quantile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double h = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(lo),
                   samples.end());
  const double lo_value = samples[lo];
  if (lo + 1 >= samples.size()) return lo_value;
  // The next rank is the minimum of the partition above `lo`.
  const double hi_value = *std::min_element(
      samples.begin() + static_cast<std::ptrdiff_t>(lo) + 1, samples.end());
  return lo_value + (h - static_cast<double>(lo)) * (hi_value - lo_value);
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
  }
}

void CpuRotation::next() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[at_++ % cpus_.size()], &set);
  (void)sched_setaffinity(0, sizeof(set), &set);  // best effort: a refusal only loses the spread
}

void SliceSeries::close(double count, double seconds, std::vector<double>* latencies) {
  rates_.push_back(count / seconds);
  if (latencies == nullptr) return;
  min_samples_ = p50s_.empty() ? latencies->size() : std::min(min_samples_, latencies->size());
  p50s_.push_back(quantile(*latencies, 0.5));
  p99s_.push_back(quantile(*latencies, 0.99));
  latencies->clear();
}

double SliceSeries::rate() const {
  std::vector<double> v = rates_;
  return quantile(v, 0.9);
}

double SliceSeries::p50() const {
  std::vector<double> v = p50s_;
  return quantile(v, 0.1);
}

double SliceSeries::p99() const {
  std::vector<double> v = p99s_;
  return quantile(v, 0.1);
}

std::string SliceSeries::summary(const char* what) const {
  std::vector<double> v = rates_;
  const double p10 = quantile(v, 0.1);
  const double p50 = quantile(v, 0.5);
  const double p90 = quantile(v, 0.9);
  return format("%s: slice rate p10 %.4g / p50 %.4g / p90 %.4g over %zu slices "
                "(>= %zu latency samples per slice)",
                what, p10, p50, p90, rates_.size(), min_samples_);
}

void Digest::add(std::uint64_t word) noexcept {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (word >> (8 * i)) & 0xff;
    h_ *= 0x100000001b3ull;
  }
}

void Digest::add(std::span<const std::uint8_t> bytes) noexcept {
  for (const std::uint8_t b : bytes) {
    h_ ^= b;
    h_ *= 0x100000001b3ull;
  }
}

std::string Digest::hex() const { return format("%016llx", static_cast<unsigned long long>(h_)); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Report::check(const std::string& oracle, bool ok, const std::string& detail) {
  if (!ok) oracles_ok = false;
  note(format("oracle %s: %s%s%s", oracle.c_str(), ok ? "pass" : "FAIL",
              detail.empty() ? "" : " -- ", detail.c_str()));
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

}  // namespace perfbench
