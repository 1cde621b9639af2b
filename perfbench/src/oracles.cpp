#include "oracles.hpp"

#include <algorithm>

#include "common.hpp"

namespace perfbench {
namespace {

int action_image(core::Action a) {
  switch (a) {
    case core::Action::kForward: return 0;
    case core::Action::kDrop: return 1;
    case core::Action::kError: return 2;
  }
  return -1;
}

int action_image(refmodel::RefAction a) {
  switch (a) {
    case refmodel::RefAction::kForward: return 0;
    case refmodel::RefAction::kDrop: return 1;
    case refmodel::RefAction::kError: return 2;
  }
  return -1;
}

int reason_image(core::DropReason r) {
  using R = core::DropReason;
  switch (r) {
    case R::kNone: return 0;
    case R::kNoRoute: return 1;
    case R::kPitMiss: return 2;
    case R::kHopLimitExceeded: return 3;
    case R::kAuthFailed: return 4;
    case R::kBudgetExhausted: return 5;
    case R::kUnsupportedFn: return 6;
    case R::kMalformed: return 7;
    case R::kDuplicate: return 8;
    case R::kPolicyDenied: return 9;
    case R::kAggregated: return 10;
    case R::kRateExceeded: return 11;
    case R::kOverloadShed: return 12;
    case R::kCorruptQuarantine: return 13;
  }
  return -1;
}

int reason_image(refmodel::RefDrop r) {
  using R = refmodel::RefDrop;
  switch (r) {
    case R::kNone: return 0;
    case R::kNoRoute: return 1;
    case R::kPitMiss: return 2;
    case R::kHopLimitExceeded: return 3;
    case R::kAuthFailed: return 4;
    case R::kBudgetExhausted: return 5;
    case R::kUnsupportedFn: return 6;
    case R::kMalformed: return 7;
    case R::kDuplicate: return 8;
    case R::kPolicyDenied: return 9;
    case R::kAggregated: return 10;
    case R::kRateExceeded: return 11;
    case R::kOverloadShed: return 12;
    case R::kCorruptQuarantine: return 13;
  }
  return -1;
}

constexpr std::uint32_t kProbeMagic = 0x50424E31u;  // "PBN1"

void put(std::span<std::uint8_t> out, std::size_t at, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * (bytes - 1 - i)));
  }
}

std::uint64_t get(std::span<const std::uint8_t> in, std::size_t at, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) v = (v << 8) | in[at + static_cast<std::size_t>(i)];
  return v;
}

}  // namespace

VerdictImage image_of(const core::ProcessResult& r) {
  VerdictImage v;
  v.action = action_image(r.action);
  v.reason = reason_image(r.reason);
  v.egress.assign(r.egress.begin(), r.egress.end());
  v.offending_key = static_cast<std::uint16_t>(r.offending_key);
  v.respond_from_cache = r.respond_from_cache;
  return v;
}

VerdictImage image_of(const refmodel::RefVerdict& r) {
  VerdictImage v;
  v.action = action_image(r.action);
  v.reason = reason_image(r.reason);
  v.egress = r.egress;
  v.offending_key = r.offending_key;
  v.respond_from_cache = r.respond_from_cache;
  return v;
}

bool verdicts_match(const core::ProcessResult& prod, std::span<const std::uint8_t> prod_bytes,
                    const refmodel::RefVerdict& ref, std::span<const std::uint8_t> ref_bytes) {
  return image_of(prod) == image_of(ref) &&
         std::equal(prod_bytes.begin(), prod_bytes.end(), ref_bytes.begin(),
                    ref_bytes.end());
}

void Tally::add(const core::ProcessResult& r) noexcept {
  const auto a = static_cast<std::size_t>(action_image(r.action));
  const auto reason = static_cast<std::size_t>(reason_image(r.reason));
  ++by_action_reason[(a % 3) * 16 + reason % 16];
  egress_faces += r.egress.size();
}

std::uint64_t Tally::total() const noexcept {
  std::uint64_t n = 0;
  for (const std::uint64_t c : by_action_reason) n += c;
  return n;
}

bool probe_ok(const core::ProcessResult& r, std::uint32_t expected) noexcept {
  if (!r.forwarded()) return false;
  return expected == kChurnedDestination || r.egress[0] == expected;
}

std::size_t table_mismatches(const fib::Ipv4Lpm& published, const fib::Ipv4Lpm& oracle,
                             std::span<const std::uint32_t> addrs) {
  std::size_t bad = published.size() == oracle.size() ? 0 : 1;
  for (const std::uint32_t a : addrs) {
    const fib::Ipv4Addr addr = fib::ipv4_from_u32(a);
    if (published.lookup(addr) != oracle.lookup(addr)) ++bad;
  }
  return bad;
}

void write_probe(std::span<std::uint8_t> payload, std::uint64_t seed, std::uint64_t id,
                 std::uint64_t due_ns) {
  put(payload, 0, kProbeMagic, 4);
  put(payload, 4, id, 8);
  put(payload, 12, due_ns, 8);
  Rng fill(seed ^ (id * 0x9E3779B97F4A7C15ull));
  for (std::size_t i = kProbeHeaderBytes; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(fill.next());
  }
}

std::optional<ProbeFields> read_probe(std::span<const std::uint8_t> payload,
                                      std::uint64_t seed) {
  if (payload.size() < kProbeHeaderBytes || get(payload, 0, 4) != kProbeMagic) {
    return std::nullopt;
  }
  ProbeFields f;
  f.id = get(payload, 4, 8);
  f.due_ns = get(payload, 12, 8);
  Rng fill(seed ^ (f.id * 0x9E3779B97F4A7C15ull));
  for (std::size_t i = kProbeHeaderBytes; i < payload.size(); ++i) {
    if (payload[i] != static_cast<std::uint8_t>(fill.next())) return std::nullopt;
  }
  return f;
}

bool ledger_ok(const mesh::WireLedger& ledger) noexcept {
  return ledger.imbalance() == 0 && ledger.lost + ledger.blackholed == 0;
}

}  // namespace perfbench
