// table1_mix: every Table-1 composition interleaved in each 32-packet burst.
//
// Closed loop, one thread. Fixed per-burst shares of DIP-32, DIP-128, NDN
// (interest or data), OPT, NDN+OPT (interest or data) and XIA, shuffled by
// seed, at the Fig. 2 frame sizes (128/768/1500 B), some with the §2.2
// parallel bit. The FIB is the size of the repository's bench environment,
// so FIB and control-plane changes should leave this workload unchanged,
// while the classified waves, legacy demotion, dispatch_relaxed and the
// OPT MACs carry the cost.
#include <algorithm>
#include <cstring>
#include <deque>

#include "dip/core/header.hpp"
#include "dip/netsim/dip_node.hpp"
#include "layers.hpp"
#include "oracles.hpp"
#include "table1.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kBurst = 32;
constexpr std::size_t kPassBursts = 512;
/// Per-burst slots of each kind group (sums to kBurst): DIP-32, DIP-128,
/// NDN, OPT, NDN+OPT, XIA.
constexpr std::size_t kShares[] = {9, 5, 6, 5, 4, 3};
constexpr double kParallelShare = 0.15;
constexpr double kUnsolicitedData = 0.05;
/// Simulated time per burst: interests are answered within a few bursts,
/// far inside the 4 s PIT lifetime, while stale expiry-heap items still age
/// out during a run.
constexpr SimTime kBurstSimNs = 1'000'000;
constexpr int kTable1Setups = 16;  // node build + one warm-up pass each
/// The control plane idles during the mix; its publish path is probed on a
/// private table copy between slices (RouteProbe).
constexpr int kProbeUpdatesPerSlice = 1000;

struct Pass {
  std::vector<std::vector<std::uint8_t>> packets;  ///< pristine templates
  std::vector<std::size_t> header_bytes;           ///< what a router may rewrite
  std::vector<Kind> kinds;
  std::string digest;
};

std::size_t frame_size(Rng& rng) {
  const std::uint64_t r = rng.below(100);
  return r < 60 ? 128 : r < 85 ? 768 : 1500;
}

Pass make_pass(const Table1World& world, std::uint64_t seed) {
  Pass pass;
  Rng rng(seed ^ 0x7AB1E1ull);
  // Names are unique within a pass, and every interest is answered by a
  // data packet in a later burst of the same pass (the last 32 bursts open
  // no new interests), so the PIT is empty at each pass boundary and every
  // pass sees the same verdicts.
  std::uint32_t next_name = 1;
  std::deque<std::uint32_t> pending_ndn, pending_ndn_opt;
  std::vector<std::uint32_t> ready_ndn, ready_ndn_opt;
  const auto pick_ndn = [&](std::deque<std::uint32_t>& pending, bool last_stretch,
                            Kind interest, Kind data, std::uint64_t& variant) {
    const double p_data =
        last_stretch ? 1.0 : std::min(0.9, 0.3 + 0.05 * static_cast<double>(pending.size()));
    if (!pending.empty() && rng.chance(p_data)) {
      variant = pending.front();
      pending.pop_front();
      return data;
    }
    if (last_stretch || rng.chance(kUnsolicitedData)) {
      variant = world.name_top_byte() | (0x800000u + next_name++);
      return data;
    }
    variant = world.name_top_byte() | next_name++;
    return interest;
  };
  for (std::size_t b = 0;
       b < kPassBursts || !pending_ndn.empty() || !pending_ndn_opt.empty(); ++b) {
    const bool last_stretch = b + 32 >= kPassBursts;
    std::vector<std::size_t> groups;
    for (std::size_t g = 0; g < std::size(kShares); ++g) groups.insert(groups.end(), kShares[g], g);
    for (std::size_t i = groups.size(); i > 1; --i) std::swap(groups[i - 1], groups[rng.below(i)]);
    for (const std::size_t g : groups) {
      Kind kind = Kind::kDip32;
      std::uint64_t variant = 0;
      switch (g) {
        case 0: {
          const std::uint64_t r = rng.below(100);
          const std::uint32_t host = static_cast<std::uint32_t>(rng.next());
          variant = r < 70   ? 0x0A010100u | (host & 0xFFu)
                    : r < 85 ? 0x0A010000u | (host & 0xFFFFu)
                    : r < 95 ? 0x0A000000u | (host & 0xFFFFFFu)
                             : 0xC0A80000u | (host & 0xFFFFu);  // unrouted
          break;
        }
        case 1:
          kind = Kind::kDip128;
          variant = rng.next();
          if (rng.chance(0.5)) variant = (variant & 0x0000FFFFFFFFFFFFull) | (1ull << 48);
          break;
        case 2:
          kind = pick_ndn(pending_ndn, last_stretch, Kind::kNdnInterest, Kind::kNdnData,
                          variant);
          if (kind == Kind::kNdnInterest) ready_ndn.push_back(static_cast<std::uint32_t>(variant));
          break;
        case 3:
          kind = Kind::kOpt;
          variant = static_cast<std::uint32_t>(rng.next());
          break;
        case 4:
          kind = pick_ndn(pending_ndn_opt, last_stretch, Kind::kNdnOptInterest,
                          Kind::kNdnOptData, variant);
          if (kind == Kind::kNdnOptInterest) {
            ready_ndn_opt.push_back(static_cast<std::uint32_t>(variant));
          }
          break;
        default: kind = Kind::kXia; break;
      }
      const bool parallel = (kind == Kind::kDip32 || kind == Kind::kDip128 ||
                             kind == Kind::kOpt || kind == Kind::kXia) &&
                            rng.chance(kParallelShare);
      pass.packets.push_back(world.packet(kind, variant, frame_size(rng), parallel));
      pass.kinds.push_back(kind);
    }
    // Interests of this burst become answerable from the next one on.
    pending_ndn.insert(pending_ndn.end(), ready_ndn.begin(), ready_ndn.end());
    pending_ndn_opt.insert(pending_ndn_opt.end(), ready_ndn_opt.begin(), ready_ndn_opt.end());
    ready_ndn.clear();
    ready_ndn_opt.clear();
  }
  Digest d;
  for (const auto& p : pass.packets) {
    const auto header = core::DipHeader::parse(p);
    pass.header_bytes.push_back(header ? header->wire_size() : p.size());
    d.add(p.size());
    d.add(p);
  }
  pass.digest = d.hex();
  return pass;
}

bool is_data(Kind k) { return k == Kind::kNdnData || k == Kind::kNdnOptData; }

}  // namespace

std::string table1_mix_digest(std::uint64_t seed) {
  return make_pass(Table1World{}, seed).digest;
}

void run_table1_mix(const Options& opt, Report& report) {
  const Table1World world;
  const Pass pass = make_pass(world, opt.seed);
  const std::size_t n = pass.packets.size();
  const std::size_t bursts = n / kBurst;
  report.note(format("input digest %s (%zu packets in %zu bursts per pass)",
                     pass.digest.c_str(), n, bursts));
  const auto registry = netsim::make_default_registry();

  // ---- verification pass: production vs a fresh refmodel node ---------------
  Tally expected;
  std::uint64_t data_packets = 0, data_forwarded = 0;
  {
    Table1Node check = world.make_node(registry.get());
    refmodel::RefNode ref = world.make_ref();
    auto prod_bytes = pass.packets;
    auto ref_bytes = pass.packets;
    std::vector<core::PacketRef> refs(prod_bytes.begin(), prod_bytes.end());
    std::vector<core::ProcessResult> results(kBurst);
    std::size_t mismatches = 0;
    for (std::size_t b = 0; b < bursts; ++b) {
      const SimTime now = static_cast<SimTime>(b) * kBurstSimNs;
      check.router->process_batch(std::span(refs).subspan(b * kBurst, kBurst), 0, now,
                                  results);
      for (std::size_t i = 0; i < kBurst; ++i) {
        const std::size_t k = b * kBurst + i;
        const refmodel::RefVerdict v = ref.process(ref_bytes[k], 0, now);
        if (!verdicts_match(results[i], prod_bytes[k], v, ref_bytes[k])) ++mismatches;
        expected.add(results[i]);
        if (is_data(pass.kinds[k])) {
          ++data_packets;
          if (results[i].forwarded()) ++data_forwarded;
        }
      }
    }
    report.attempted += n;
    report.failed += mismatches;
    report.check("table1_mix.refmodel", mismatches == 0,
                 format("%zu of %zu packets differ in verdict or bytes", mismatches, n));
  }

  // ---- set-up: build the node and run one warm-up pass ----------------------
  auto bufs = pass.packets;
  std::vector<core::PacketRef> refs(bufs.begin(), bufs.end());
  std::vector<core::ProcessResult> results(kBurst);
  std::size_t pit_max = 0, passes = 0, bad_passes = 0;
  std::vector<double> burst_us, sojourn_us;
  SimTime now = 0;
  // One pass through `router`: restore the headers a router may rewrite,
  // process burst by burst, tally the verdicts against the verified pass.
  const auto run_pass = [&](core::Router& router, bool timed) {
    Tally tally;
    for (std::size_t b = 0; b < bursts; ++b) {
      const std::uint64_t t_in = now_ns();
      for (std::size_t k = b * kBurst; k < (b + 1) * kBurst; ++k) {
        std::memcpy(bufs[k].data(), pass.packets[k].data(), pass.header_bytes[k]);
      }
      const std::uint64_t t0 = now_ns();
      router.process_batch(std::span(refs).subspan(b * kBurst, kBurst), 0, now, results);
      const std::uint64_t t1 = now_ns();
      if (timed) {
        burst_us.push_back(static_cast<double>(t1 - t0) / 1e3);
        sojourn_us.push_back(static_cast<double>(t1 - t_in) / 1e3);
      }
      for (const auto& r : results) tally.add(r);
      pit_max = std::max(pit_max, router.env().pit.size());
      now += kBurstSimNs;
    }
    ++passes;
    report.attempted += n;
    if (!(tally == expected)) {
      ++bad_passes;
      std::uint64_t diff = 0;
      for (std::size_t i = 0; i < tally.by_action_reason.size(); ++i) {
        const auto a = tally.by_action_reason[i], e = expected.by_action_reason[i];
        diff += a > e ? a - e : e - a;
      }
      report.failed += std::max<std::uint64_t>(diff / 2, 1);
    }
    return tally;
  };
  CpuRotation cpus;
  std::vector<double> setup_s;
  Table1Node node;
  for (int k = 0; k < kTable1Setups; ++k) {
    cpus.next();
    node = Table1Node{};
    now = 0;
    const std::uint64_t t0 = now_ns();
    node = world.make_node(registry.get());
    (void)run_pass(*node.router, false);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  report.set("setup_s", median(setup_s), "s");
  core::Router& router = *node.router;
  RouteProbe probe(*node.tables->fib32.read());

  // ---- timed passes -----------------------------------------------------------
  std::unique_ptr<telemetry::RouterStats> parked;
  if (opt.trace) parked = telemetry::make_router_stats();
  bool stats_on = false;
  // Passes are grouped into slices of at least kSliceNs; in a traced run
  // every other slice runs with RouterEnv::stats installed.
  SliceSeries burst, sojourn, burst_on;
  double slice_pkts = 0, slice_forwarded = 0;
  std::uint64_t slice_start = now_ns();
  const std::uint64_t end = slice_start + static_cast<std::uint64_t>(opt.seconds * 1e9);
  while (true) {
    const Tally tally = run_pass(router, true);
    slice_pkts += static_cast<double>(n);
    slice_forwarded += static_cast<double>(tally.egress_faces);
    const std::uint64_t t = now_ns();
    if (t - slice_start < kSliceNs) continue;
    const double secs = static_cast<double>(t - slice_start) / 1e9;
    if (stats_on) {
      burst_on.close(slice_pkts, secs);
      burst_us.clear();
      sojourn_us.clear();
    } else {
      burst.close(slice_pkts, secs, &burst_us);
      sojourn.close(slice_forwarded, secs, &sojourn_us);
    }
    probe.run(kProbeUpdatesPerSlice);
    cpus.next();
    slice_pkts = slice_forwarded = 0;
    slice_start = now_ns();
    if (opt.trace) {
      std::swap(router.env().stats, parked);
      stats_on = !stats_on;
    }
    if (t >= end) break;
  }
  report.set("peak_rss_mb", peak_rss_mb(), "MB");
  report.check("table1_mix.pass_tallies", bad_passes == 0,
               format("%zu of %zu passes differ from the verified tallies", bad_passes,
                      passes));

  const double fwd_pps = burst.rate();
  report.set("fwd_pps", fwd_pps, "1/s");
  report.set("fwd_burst_p50_us", burst.p50(), "us");
  report.set("fwd_burst_p99_us", burst.p99(), "us");
  report.set("mesh_hops_per_s", sojourn.rate(), "1/s");
  report.set("mesh_lat_p50_us", sojourn.p50(), "us");
  report.set("mesh_lat_p99_us", sojourn.p99(), "us");
  report.note(burst.summary("fwd_pps / fwd_burst (process_batch calls)"));

  emit_ctrl_layer(report, probe.sample(), kProbeUpdatesPerSlice);
  if (!opt.trace) return;

  // ---- traced run: per-layer metrics ----------------------------------------
  CoreSample core;
  core.counters = router.env().counters.snapshot();
  core.add_stats(router.env().stats ? *router.env().stats : *parked);
  emit_core_layer(report, core);
  report.set("telemetry.stats_overhead_frac", burst_on.rate() / fwd_pps, "ratio");

  // Uncached lookup() replay of the DIP-32 destination stream.
  const fib::Ipv4Lpm* fib32 = node.tables->fib32.read();
  std::vector<fib::Ipv4Addr> dsts;
  for (std::size_t k = 0; k < n; ++k) {
    if (pass.kinds[k] != Kind::kDip32) continue;
    const std::size_t at = core::BasicHeader::kWireSize + 2 * core::FnTriple::kWireSize;
    fib::Ipv4Addr a;
    std::memcpy(a.bytes.data(), pass.packets[k].data() + at, 4);
    dsts.push_back(a);
  }
  std::vector<double> chunks;
  std::uint32_t sink = 0;
  for (int c = 0; c < 8; ++c) {
    const std::uint64_t t0 = now_ns();
    for (int rep = 0; rep < 16; ++rep) {
      for (const auto& a : dsts) sink ^= fib32->lookup(a).value_or(0);
    }
    chunks.push_back(static_cast<double>(now_ns() - t0) / (16.0 * dsts.size()));
  }
  report.set("fib.lookup_ns", median(chunks), "ns");
  double depth = 0;
  for (const auto& a : dsts) depth += static_cast<double>(fib32->lookup_depth(a));
  report.set("fib.lookup_depth_mean", depth / static_cast<double>(dsts.size()), "nodes");
  report.set("fib.bytes_per_prefix",
             static_cast<double>(fib32->memory_bytes()) / static_cast<double>(fib32->size()),
             "B");
  report.note(format("fib.lookup_ns over %zu DIP-32 destinations (sink %u)", dsts.size(), sink));

  report.set("pit.occupancy_max", static_cast<double>(pit_max), "count");
  report.set("pit.data_hit_ratio",
             data_packets == 0 ? 0.0
                               : static_cast<double>(data_forwarded) /
                                     static_cast<double>(data_packets),
             "ratio");
  emit_in_process_hop(report, fwd_pps, core.ns_per_pkt(), 0.0);
  (void)hop_calibration_leg(report);
}

}  // namespace perfbench
