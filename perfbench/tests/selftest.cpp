// Tests of the benchmark itself: input digests are a pure function of the
// seed, the quantile and slice helpers give known answers, and every oracle
// rejects an input corrupted on purpose.
//
//   python3 perfbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "dip/core/ip.hpp"
#include "dip/fib/binary_trie.hpp"
#include "dip/netsim/dip_node.hpp"
#include "layers.hpp"
#include "oracles.hpp"
#include "table1.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::printf("  FAIL: %s\n", what);
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_digests() {
  expect(fib_churn_digest(1, 1.0) == fib_churn_digest(1, 1.0), "fib_churn digest repeats");
  expect(fib_churn_digest(1, 1.0) != fib_churn_digest(2, 1.0), "fib_churn digest follows seed");
  expect(table1_mix_digest(5) == table1_mix_digest(5), "table1_mix digest repeats");
  expect(table1_mix_digest(5) != table1_mix_digest(6), "table1_mix digest follows seed");
  expect(mesh_torus_digest(9) == mesh_torus_digest(9), "mesh_torus digest repeats");
  expect(mesh_torus_digest(9) != mesh_torus_digest(10), "mesh_torus digest follows seed");
}

void test_quantiles() {
  std::vector<double> four{4, 1, 3, 2};
  expect(near(quantile(four, 0.5), 2.5), "median of 1..4 is 2.5");
  expect(near(quantile(four, 0.0), 1.0), "q0 is the minimum");
  expect(near(quantile(four, 1.0), 4.0), "q1 is the maximum");
  expect(near(quantile(four, 0.99), 3.97), "q0.99 of 1..4 is 3.97");
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  expect(near(quantile(hundred, 0.99), 99.01), "q0.99 of 1..100 is 99.01");
  expect(near(quantile(hundred, 0.25), 25.75), "q0.25 of 1..100 is 25.75");
  std::vector<double> one{7};
  expect(near(quantile(one, 0.99), 7.0), "a single sample is every quantile");
  std::vector<double> none;
  expect(quantile(none, 0.5) == 0.0, "an empty sample gives 0");
  // Ten slices: slice k moves 100k events in one second and times the
  // samples k..k+99, so its median is k+49.5 and its p99 is k+98.01.
  SliceSeries slices;
  for (int k = 1; k <= 10; ++k) {
    std::vector<double> samples;
    for (int i = 0; i < 100; ++i) samples.push_back(k + i);
    slices.close(100.0 * k, 1.0, &samples);
    expect(samples.empty(), "closing a slice consumes its samples");
  }
  expect(slices.slices() == 10, "ten slices closed");
  expect(near(slices.rate(), 910), "slice rate p90 of 100..1000 is 910");
  expect(near(slices.p50(), 51.4), "p10 of slice medians 50.5..59.5 is 51.4");
  expect(near(slices.p99(), 99.91), "p10 of slice p99s 99.01..108.01 is 99.91");
}

void test_table1_oracle() {
  const Table1World world;
  const auto registry = netsim::make_default_registry();
  Table1Node node = world.make_node(registry.get());
  refmodel::RefNode ref = world.make_ref();
  auto prod = world.packet(Kind::kOpt, 1234, 128, false);
  auto mirror = prod;
  const core::ProcessResult r = node.router->process(prod, 0, 0);
  const refmodel::RefVerdict v = ref.process(mirror, 0, 0);
  expect(verdicts_match(r, prod, v, mirror), "production and refmodel agree on OPT");

  core::ProcessResult wrong_face = r;
  wrong_face.egress.clear();
  wrong_face.egress.push_back(99);
  expect(!verdicts_match(wrong_face, prod, v, mirror), "a corrupted egress is rejected");
  core::ProcessResult wrong_action = r;
  wrong_action.drop(core::DropReason::kNoRoute);
  expect(!verdicts_match(wrong_action, prod, v, mirror), "a corrupted action is rejected");
  auto flipped = prod;
  flipped[40] ^= 0x01;  // inside the rewritten OPT block
  expect(!verdicts_match(r, flipped, v, mirror), "a corrupted rewritten byte is rejected");

  Tally a, b;
  a.add(r);
  b.add(r);
  expect(a == b, "equal tallies compare equal");
  b.add(wrong_action);
  expect(!(a == b), "a tally with an extra drop differs");
}

void test_fib_oracle() {
  core::ProcessResult fwd;
  fwd.egress.push_back(7);
  expect(probe_ok(fwd, 7), "a probe out of its expected face passes");
  expect(!probe_ok(fwd, 8), "a probe out of another face fails");
  expect(probe_ok(fwd, kChurnedDestination), "a churned destination may leave anywhere");
  core::ProcessResult hole;
  hole.drop(core::DropReason::kNoRoute);
  expect(!probe_ok(hole, kChurnedDestination), "a blackholed probe fails");

  fib::BinaryTrie<32> published, oracle;
  const fib::Prefix<32> p8{fib::ipv4_from_u32(0x0A000000u), 8};
  const fib::Prefix<32> p24{fib::ipv4_from_u32(0x0A010100u), 24};
  for (auto* t : {&published, &oracle}) {
    t->insert(p8, 1);
    t->insert(p24, 2);
  }
  const std::vector<std::uint32_t> addrs{0x0A010105u, 0x0A020202u};
  expect(table_mismatches(published, oracle, addrs) == 0, "identical tables match");
  published.insert(p24, 3);
  expect(table_mismatches(published, oracle, addrs) == 1, "a corrupted next hop is found");
  published.insert(p24, 2);
  published.insert({fib::ipv4_from_u32(0x0B000000u), 8}, 4);
  expect(table_mismatches(published, oracle, addrs) == 1, "an extra route is found");
}

void test_mesh_oracle() {
  std::vector<std::uint8_t> payload(102);
  write_probe(payload, 42, 17, 123456);
  const auto probe = read_probe(payload, 42);
  expect(probe && probe->id == 17 && probe->due_ns == 123456, "an intact probe reads back");
  auto damaged = payload;
  damaged[60] ^= 0x80;
  expect(!read_probe(damaged, 42), "a corrupted payload byte is rejected");
  expect(!read_probe(payload, 43), "a probe checked under another seed is rejected");

  mesh::WireLedger ledger;
  ledger.transmitted = 100;
  ledger.delivered = 100;
  expect(ledger_ok(ledger), "a balanced ledger passes");
  mesh::WireLedger short_delivered = ledger;
  short_delivered.delivered = 99;
  expect(!ledger_ok(short_delivered), "an imbalanced ledger is rejected");
  mesh::WireLedger lossy = ledger;
  lossy.delivered = 99;
  lossy.lost = 1;
  expect(!ledger_ok(lossy), "a ledger with a lost frame is rejected");
}

}  // namespace

int main() {
  const std::pair<const char*, std::function<void()>> tests[] = {
      {"quantiles", test_quantiles},         {"table1_oracle", test_table1_oracle},
      {"fib_oracle", test_fib_oracle},       {"mesh_oracle", test_mesh_oracle},
      {"input_digests", test_digests},
  };
  for (const auto& [name, fn] : tests) {
    const int before = g_failures;
    fn();
    std::printf("%s %s\n", g_failures == before ? "ok  " : "FAIL", name);
  }
  std::printf("%s\n", g_failures == 0 ? "all selftests passed" : "selftests FAILED");
  return g_failures == 0 ? 0 : 1;
}
