// Correctness oracles, one family per workload. Each returns a plain verdict
// so the self-test can feed it deliberately corrupted inputs.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common.hpp"
#include "dip/core/verdict.hpp"
#include "dip/fib/lpm.hpp"
#include "dip/mesh/node.hpp"
#include "dip/refmodel/refmodel.hpp"

namespace perfbench {

// ---- table1_mix -----------------------------------------------------------

/// Both routers' verdicts mapped by name into one comparable image, so an
/// enum renumbering on either side cannot hide a divergence.
struct VerdictImage {
  int action = 0;
  int reason = 0;
  std::vector<std::uint32_t> egress;
  std::uint16_t offending_key = 0;
  bool respond_from_cache = false;
  friend bool operator==(const VerdictImage&, const VerdictImage&) = default;
};
[[nodiscard]] VerdictImage image_of(const core::ProcessResult& r);
[[nodiscard]] VerdictImage image_of(const refmodel::RefVerdict& r);

/// Production and refmodel agree on the verdict and on every rewritten byte.
[[nodiscard]] bool verdicts_match(const core::ProcessResult& prod,
                                  std::span<const std::uint8_t> prod_bytes,
                                  const refmodel::RefVerdict& ref,
                                  std::span<const std::uint8_t> ref_bytes);

/// Action tallies of one pass over the mix: (action, drop reason) counts
/// plus the total number of egress faces chosen.
struct Tally {
  std::array<std::uint64_t, 3 * 16> by_action_reason{};
  std::uint64_t egress_faces = 0;
  void add(const core::ProcessResult& r) noexcept;
  [[nodiscard]] std::uint64_t total() const noexcept;
  friend bool operator==(const Tally&, const Tally&) = default;
};

// ---- fib_churn ------------------------------------------------------------

/// Face value marking a destination that sits under a churned prefix: any
/// forwarding verdict is then correct, but a drop is a blackhole.
inline constexpr std::uint32_t kChurnedDestination = 0;

/// One probe's verdict: forwarded, and out of `expected` unless the
/// destination is churned.
[[nodiscard]] bool probe_ok(const core::ProcessResult& r, std::uint32_t expected) noexcept;

/// Addresses on which `published` and `oracle` disagree, plus one when
/// their route counts differ.
[[nodiscard]] std::size_t table_mismatches(const fib::Ipv4Lpm& published,
                                           const fib::Ipv4Lpm& oracle,
                                           std::span<const std::uint32_t> addrs);

// ---- mesh_torus -----------------------------------------------------------

/// Probe payload: magic, probe id, due time, then seeded fill bytes that
/// are a pure function of (seed, id), so damage anywhere is detectable.
inline constexpr std::size_t kProbeHeaderBytes = 20;
void write_probe(std::span<std::uint8_t> payload, std::uint64_t seed, std::uint64_t id,
                 std::uint64_t due_ns);
struct ProbeFields {
  std::uint64_t id = 0;
  std::uint64_t due_ns = 0;
};
/// The probe's fields when the payload is intact, else nullopt.
[[nodiscard]] std::optional<ProbeFields> read_probe(std::span<const std::uint8_t> payload,
                                                    std::uint64_t seed);

/// A quiesced mesh without impairments: balanced, nothing lost or
/// blackholed.
[[nodiscard]] bool ledger_ok(const mesh::WireLedger& ledger) noexcept;

}  // namespace perfbench
