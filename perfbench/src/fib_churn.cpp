// fib_churn: LPM lookups and copy-on-write publishing on the same tables.
//
// One forwarding thread pushes 128-byte DIP-32 packets through
// Router::process_batch in bursts of 32, closed loop, towards Zipf-popular
// destinations over ~1M addresses (so the 4096-entry flow cache misses
// often). A second thread offers route updates open loop at kUpdateRate:
// more-specific flaps, next-hop swaps and add/remove under stable covering
// aggregates, flushed every kHoldDownNs. The 1M-route table is installed
// through a RouteJournal with the default JournalConfig, so a change of
// default engine shows here.
#include <algorithm>
#include <cstring>
#include <set>
#include <thread>

#include "dip/core/ip.hpp"
#include "dip/core/router.hpp"
#include "dip/fib/binary_trie.hpp"
#include "dip/fib/synth.hpp"
#include "dip/netsim/dip_node.hpp"
#include "dip/netsim/topology.hpp"
#include "layers.hpp"
#include "oracles.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kRoutes = 1'000'000;
constexpr std::size_t kDestinations = 1'000'000;
constexpr double kZipfExponent = 0.99;
constexpr std::size_t kTraceLen = std::size_t{1} << 21;  // power of two
constexpr std::size_t kFlowCacheSlots = 4096;
constexpr std::size_t kBurst = 32;
constexpr std::size_t kPacketBytes = 128;
// The offered update load and the publish cadence; both are part of the
// workload's definition (README.md), not tuning knobs.
constexpr double kUpdateRate = 10'000;             // updates per second
constexpr std::uint64_t kHoldDownNs = 250'000'000;  // journal flush period
constexpr std::size_t kFlapSlots = 256;        // hot: flap within a hold-down
constexpr std::size_t kAddRemoveSlots = 4096;  // cold: added, later removed
constexpr std::size_t kSwapSlots = 2048;       // base routes whose next hop moves
constexpr int kFibSetups = 3;  // setup_s is their median; each takes seconds

struct Update {
  fib::Prefix<32> prefix;
  fib::NextHop nh = 0;
  bool remove = false;
};

struct Inputs {
  std::vector<fib::synth::SynthRoute<32>> routes;
  std::vector<fib::Prefix<32>> churned;  ///< every prefix an update touches
  std::vector<std::uint32_t> dests;      ///< destination addresses by Zipf rank
  std::vector<std::uint32_t> trace;      ///< indices into dests
  std::vector<Update> updates;
  std::string digest;
};

std::uint32_t host_mask(std::uint8_t len) {
  return len >= 32 ? 0u : 0xFFFFFFFFu >> len;
}

std::uint64_t key_of(const fib::Prefix<32>& p) {
  return (static_cast<std::uint64_t>(fib::ipv4_to_u32(p.addr)) << 8) | p.length;
}

Inputs make_inputs(std::uint64_t seed, double seconds) {
  Inputs in;
  in.routes = fib::synth::ipv4_table(kRoutes, seed);
  const std::size_t n = in.routes.size();
  std::vector<std::uint64_t> base_keys;
  base_keys.reserve(n);
  for (const auto& r : in.routes) base_keys.push_back(key_of(r.prefix));
  std::sort(base_keys.begin(), base_keys.end());

  Rng rng(seed ^ 0xC4A2'0000'0000'0001ull);
  std::set<std::uint64_t> used;
  // A more-specific of a base route of length <= 24 that is not itself a
  // base route: the base route stays installed, so it always covers it.
  const auto more_specific = [&]() {
    while (true) {
      const fib::Prefix<32>& base = in.routes[rng.below(n)].prefix;
      if (base.length > 24) continue;
      const auto len = static_cast<std::uint8_t>(base.length + 1 + rng.below(8));
      const std::uint32_t addr = fib::ipv4_to_u32(base.addr) |
                                 (static_cast<std::uint32_t>(rng.next()) & host_mask(base.length));
      fib::Prefix<32> p{fib::ipv4_from_u32(addr), len};
      p.normalize();
      const std::uint64_t key = key_of(p);
      if (std::binary_search(base_keys.begin(), base_keys.end(), key)) continue;
      if (!used.insert(key).second) continue;
      return p;
    }
  };
  std::vector<fib::Prefix<32>> flaps(kFlapSlots), add_removes(kAddRemoveSlots);
  for (auto& p : flaps) p = more_specific();
  for (auto& p : add_removes) p = more_specific();
  std::vector<fib::Prefix<32>> swaps;
  while (swaps.size() < kSwapSlots) {
    const fib::Prefix<32>& p = in.routes[rng.below(n)].prefix;
    if (used.insert(key_of(p)).second) swaps.push_back(p);
  }
  in.churned = flaps;
  in.churned.insert(in.churned.end(), add_removes.begin(), add_removes.end());
  in.churned.insert(in.churned.end(), swaps.begin(), swaps.end());

  // The open-loop schedule, long enough for the run with headroom.
  const auto count = static_cast<std::size_t>(kUpdateRate * seconds * 1.25) + 1000;
  std::vector<bool> flap_on(kFlapSlots), add_on(kAddRemoveSlots);
  in.updates.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t roll = rng.below(10);
    const auto nh = static_cast<fib::NextHop>(1 + rng.below(255));
    if (roll < 7) {
      const bool hot = roll < 4;
      auto& on = hot ? flap_on : add_on;
      const auto& slots = hot ? flaps : add_removes;
      const std::size_t s = rng.below(slots.size());
      in.updates.push_back({slots[s], nh, on[s]});
      on[s] = !on[s];
    } else {
      in.updates.push_back({swaps[rng.below(swaps.size())], nh, false});
    }
  }

  in.dests.reserve(kDestinations);
  for (std::size_t i = 0; i < kDestinations; ++i) {
    const fib::Prefix<32>& p = in.routes[rng.below(n)].prefix;
    in.dests.push_back(fib::ipv4_to_u32(p.addr) |
                       (static_cast<std::uint32_t>(rng.next()) & host_mask(p.length)));
  }
  netsim::ZipfSampler zipf(kDestinations, kZipfExponent, seed ^ 0x21F);
  in.trace.resize(kTraceLen);
  for (auto& t : in.trace) t = static_cast<std::uint32_t>(zipf.sample());

  Digest d;
  for (const auto& r : in.routes) {
    d.add(key_of(r.prefix));
    d.add(r.nh);
  }
  for (const auto& u : in.updates) d.add((key_of(u.prefix) << 9) | (u.nh << 1) | u.remove);
  for (const std::uint32_t a : in.dests) d.add(a);
  for (const std::uint32_t t : in.trace) d.add(t);
  in.digest = d.hex();
  return in;
}

struct Node {
  std::shared_ptr<ctrl::ControlTables> tables;
  std::unique_ptr<ctrl::RouteJournal> journal;
  std::unique_ptr<core::Router> router;
};

Node set_up(const Inputs& in, const core::OpRegistry* registry) {
  Node node;
  node.tables = std::make_shared<ctrl::ControlTables>();
  node.journal = std::make_unique<ctrl::RouteJournal>(node.tables);
  for (const auto& r : in.routes) node.journal->add_route32(r.prefix, r.nh);
  node.journal->flush();
  core::RouterEnv env;
  env.node_id = 1;
  env.control = node.tables;
  env.ctrl_reader = node.tables->register_reader();
  env.flow_cache = std::make_unique<core::FlowCache>(kFlowCacheSlots);
  node.router = std::make_unique<core::Router>(std::move(env), registry);
  return node;
}

/// The update thread's open loop: enqueue each update at its scheduled
/// time, flush on the hold-down grid, stop at `end` with a final flush.
struct UpdaterOut {
  CtrlSample ctrl;
  std::vector<double> lateness_us;
  std::size_t applied = 0;
};

void run_updater(ctrl::RouteJournal& journal, const std::vector<Update>& updates,
                 std::uint64_t start, std::uint64_t end, UpdaterOut& out) {
  const double gap_ns = 1e9 / kUpdateRate;
  const auto due = [&](std::size_t i) {
    return start + static_cast<std::uint64_t>(static_cast<double>(i) * gap_ns);
  };
  const ctrl::JournalStats before = journal.stats();
  std::vector<std::uint64_t> pending;
  std::uint64_t next_flush = start + kHoldDownNs;
  std::size_t i = 0;
  while (true) {
    const std::uint64_t now = now_ns();
    const bool ending = now >= end;
    for (; !ending && i < updates.size() && due(i) <= now; ++i) {
      const Update& u = updates[i];
      if (u.remove) {
        journal.remove_route32(u.prefix);
      } else {
        journal.add_route32(u.prefix, u.nh);
      }
      pending.push_back(due(i));
      out.lateness_us.push_back(static_cast<double>(now - due(i)) / 1e3);
    }
    if (now >= next_flush || ending) {
      if (!pending.empty()) {
        journal.flush();
        const std::uint64_t published = now_ns();
        for (const std::uint64_t s : pending) {
          out.ctrl.update_ms.push_back(static_cast<double>(published - s) / 1e6);
        }
        pending.clear();
        out.ctrl.flush_ns.push_back(static_cast<double>(journal.stats().last_flush_ns));
        out.ctrl.backlog_max =
            std::max(out.ctrl.backlog_max, journal.tables().domain.backlog());
      }
      while (next_flush <= now_ns()) next_flush += kHoldDownNs;
    }
    if (ending) break;
    const std::uint64_t wake =
        std::min(i < updates.size() ? due(i) : end, std::min(next_flush, end));
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::nanoseconds(wake)));
  }
  const ctrl::JournalStats after = journal.stats();
  out.ctrl.ops_enqueued = after.ops_enqueued - before.ops_enqueued;
  out.ctrl.ops_coalesced = after.ops_coalesced - before.ops_coalesced;
  out.ctrl.publishes = after.snapshots_published - before.snapshots_published;
  out.applied = i;
}

}  // namespace

std::string fib_churn_digest(std::uint64_t seed, double seconds) {
  return make_inputs(seed, seconds).digest;
}

void run_fib_churn(const Options& opt, Report& report) {
  const Inputs in = make_inputs(opt.seed, opt.seconds);
  report.note("input digest " + in.digest);
  const auto registry = netsim::make_default_registry();

  CpuRotation cpus;
  std::vector<double> setup_s;
  Node node;
  for (int k = 0; k < kFibSetups; ++k) {
    cpus.next();
    node = Node{};
    const std::uint64_t t0 = now_ns();
    node = set_up(in, registry.get());
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  report.set("setup_s", median(setup_s), "s");
  core::Router& router = *node.router;

  // Expected faces: a destination no churned prefix covers keeps the face
  // the initial table gives it for the whole run.
  fib::BinaryTrie<32> churn_cover;
  for (const auto& p : in.churned) churn_cover.insert(p, 1);
  const fib::Ipv4Lpm* initial = node.tables->fib32.read();
  std::vector<std::uint32_t> expected(in.dests.size());
  for (std::size_t i = 0; i < in.dests.size(); ++i) {
    const fib::Ipv4Addr a = fib::ipv4_from_u32(in.dests[i]);
    expected[i] = churn_cover.lookup(a) ? kChurnedDestination
                                        : initial->lookup(a).value_or(fib::kNoRoute);
  }

  // One DIP-32 template; each packet gets its destination written into
  // the FN-locations block (F_32_match's field is the first location).
  const auto header = core::make_dip32_header(fib::ipv4_from_u32(0xC0000201u),
                                              fib::parse_ipv4("172.16.0.1").value());
  std::vector<std::uint8_t> tmpl = header->serialize();
  const std::size_t header_bytes = tmpl.size();
  const std::size_t dst_at = core::BasicHeader::kWireSize + 2 * core::FnTriple::kWireSize;
  if (tmpl[dst_at] != 0xC0 || tmpl[dst_at + 3] != 0x01) {
    throw std::runtime_error("fib_churn: unexpected DIP-32 header layout");
  }
  tmpl.resize(kPacketBytes, 0xA5);
  std::vector<std::vector<std::uint8_t>> bufs(kBurst, tmpl);
  std::vector<core::PacketRef> refs(bufs.begin(), bufs.end());
  std::vector<core::ProcessResult> results(kBurst);
  std::array<std::uint32_t, kBurst> ids{};

  std::unique_ptr<telemetry::RouterStats> parked;
  if (opt.trace) parked = telemetry::make_router_stats();
  bool stats_on = false;

  const std::uint64_t start = now_ns() + 1'000'000;
  const std::uint64_t end = start + static_cast<std::uint64_t>(opt.seconds * 1e9);
  UpdaterOut upd;
  std::thread updater(run_updater, std::ref(*node.journal), std::cref(in.updates), start,
                      end, std::ref(upd));

  // Untraced slices feed the end-to-end figures; in a traced run every other
  // slice runs with RouterEnv::stats installed and feeds `burst_on`.
  SliceSeries burst, sojourn, burst_on;
  std::vector<double> burst_us, sojourn_us;
  std::uint64_t slice_pkts = 0, slice_forwarded = 0;
  std::size_t pos = 0;
  while (now_ns() < start) {
  }
  std::uint64_t slice_start = now_ns();
  while (true) {
    const std::uint64_t t_in = now_ns();
    for (std::size_t b = 0; b < kBurst; ++b) {
      ids[b] = in.trace[pos];
      pos = (pos + 1) & (kTraceLen - 1);
      std::uint8_t* p = bufs[b].data();
      std::memcpy(p, tmpl.data(), header_bytes);
      const std::uint32_t dst = in.dests[ids[b]];
      p[dst_at] = static_cast<std::uint8_t>(dst >> 24);
      p[dst_at + 1] = static_cast<std::uint8_t>(dst >> 16);
      p[dst_at + 2] = static_cast<std::uint8_t>(dst >> 8);
      p[dst_at + 3] = static_cast<std::uint8_t>(dst);
    }
    const std::uint64_t t0 = now_ns();
    router.process_batch(refs, 0, 0, results);
    const std::uint64_t t1 = now_ns();
    burst_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    sojourn_us.push_back(static_cast<double>(t1 - t_in) / 1e3);
    for (std::size_t b = 0; b < kBurst; ++b) {
      if (results[b].forwarded()) ++slice_forwarded;
      if (!probe_ok(results[b], expected[ids[b]])) ++report.failed;
    }
    report.attempted += kBurst;
    slice_pkts += kBurst;
    if (t1 - slice_start >= kSliceNs) {
      const double secs = static_cast<double>(t1 - slice_start) / 1e9;
      if (stats_on) {
        burst_on.close(static_cast<double>(slice_pkts), secs);
        burst_us.clear();
        sojourn_us.clear();
      } else {
        burst.close(static_cast<double>(slice_pkts), secs, &burst_us);
        sojourn.close(static_cast<double>(slice_forwarded), secs, &sojourn_us);
      }
      cpus.next();
      slice_pkts = slice_forwarded = 0;
      slice_start = now_ns();
      if (opt.trace) {
        std::swap(router.env().stats, parked);
        stats_on = !stats_on;
      }
      if (t1 >= end) break;
    }
  }
  updater.join();
  report.set("peak_rss_mb", peak_rss_mb(), "MB");

  const double fwd_pps = burst.rate();
  report.set("fwd_pps", fwd_pps, "1/s");
  report.set("fwd_burst_p50_us", burst.p50(), "us");
  report.set("fwd_burst_p99_us", burst.p99(), "us");
  report.set("mesh_hops_per_s", sojourn.rate(), "1/s");
  report.set("mesh_lat_p50_us", sojourn.p50(), "us");
  report.set("mesh_lat_p99_us", sojourn.p99(), "us");
  report.note(burst.summary("fwd_pps / fwd_burst (process_batch calls)"));
  report.note(format("route churn: %zu updates applied, %llu publishes", upd.applied,
                     static_cast<unsigned long long>(upd.ctrl.publishes)));

  // Oracle: the published table equals a binary trie rebuilt from the base
  // table plus the applied update log, on every churned prefix's edges and
  // a stride of the destinations.
  const fib::Ipv4Lpm* published = node.tables->fib32.read();
  fib::BinaryTrie<32> oracle;
  for (const auto& r : in.routes) oracle.insert(r.prefix, r.nh);
  for (std::size_t i = 0; i < upd.applied; ++i) {
    const Update& u = in.updates[i];
    if (u.remove) {
      oracle.remove(u.prefix);
    } else {
      oracle.insert(u.prefix, u.nh);
    }
  }
  std::vector<std::uint32_t> probe_addrs;
  for (const auto& p : in.churned) {
    const std::uint32_t base = fib::ipv4_to_u32(p.addr);
    probe_addrs.push_back(base);
    probe_addrs.push_back(base | host_mask(p.length));
    probe_addrs.push_back(base | (host_mask(p.length) >> 1));
  }
  for (std::size_t i = 0; i < in.dests.size(); i += 16) probe_addrs.push_back(in.dests[i]);
  const std::size_t table_bad = table_mismatches(*published, oracle, probe_addrs);
  report.check("fib_churn.published_table", table_bad == 0,
               format("%zu mismatches over %zu addresses, %zu vs %zu routes", table_bad,
                      probe_addrs.size(), published->size(), oracle.size()));
  report.check("fib_churn.probes", report.failed == 0,
               format("%llu of %llu probes misrouted or blackholed",
                      static_cast<unsigned long long>(report.failed),
                      static_cast<unsigned long long>(report.attempted)));
  if (table_bad != 0) report.failed += table_bad;

  // One chunk per hold-down window: update i is due in window i / kWindow,
  // so chunk k holds exactly the updates the k-th flush publishes.
  constexpr auto kWindow = static_cast<std::size_t>(kUpdateRate * kHoldDownNs / 1e9);
  emit_ctrl_layer(report, upd.ctrl, kWindow);
  if (!opt.trace) return;

  // ---- traced run: per-layer metrics ----------------------------------------
  CoreSample core;
  core.counters = router.env().counters.snapshot();
  core.add_stats(router.env().stats ? *router.env().stats : *parked);
  emit_core_layer(report, core);
  report.set("telemetry.stats_overhead_frac", burst_on.rate() / fwd_pps, "ratio");

  // Uncached lookup() replay of the destination stream on the final table.
  constexpr std::size_t kLookups = std::size_t{1} << 20;
  std::vector<double> chunks;
  std::uint32_t sink = 0;
  for (std::size_t c = 0; c < 8; ++c) {
    const std::uint64_t t0 = now_ns();
    for (std::size_t k = c * kLookups / 8; k < (c + 1) * kLookups / 8; ++k) {
      sink ^= published->lookup(fib::ipv4_from_u32(in.dests[in.trace[k]])).value_or(0);
    }
    chunks.push_back(static_cast<double>(now_ns() - t0) / (kLookups / 8.0));
  }
  report.set("fib.lookup_ns", median(chunks), "ns");
  double depth = 0;
  constexpr std::size_t kDepthProbes = 65536;
  for (std::size_t k = 0; k < kDepthProbes; ++k) {
    depth += static_cast<double>(
        published->lookup_depth(fib::ipv4_from_u32(in.dests[in.trace[k]])));
  }
  report.set("fib.lookup_depth_mean", depth / kDepthProbes, "nodes");
  report.set("fib.bytes_per_prefix",
             static_cast<double>(published->memory_bytes()) /
                 static_cast<double>(published->size()),
             "B");
  report.note(format("fib.lookup_ns over %zu lookups (sink %u)", kLookups, sink));

  report.set("pit.occupancy_max", static_cast<double>(router.env().pit.size()), "count");
  report.set("pit.data_hit_ratio", 0.0, "ratio");
  emit_in_process_hop(report, fwd_pps, core.ns_per_pkt(), quantile(upd.lateness_us, 0.99));
  (void)hop_calibration_leg(report);
}

}  // namespace perfbench
