// mesh_torus: 108 MeshNet routers (9x12 torus) on real loopback UDP, no
// impairments, one thread. DIP-32 probes on Zipf flows are injected through
// MeshRouter::inject from event-loop timers in two phases:
//   * capacity: closed loop, kWindow probes in flight -> mesh_hops_per_s;
//   * latency: open loop at kOfferedRate (about half the capacity seen
//     when the rate was frozen), each probe timed from its due time.
// poll, recvfrom/sendto and framing dominate here (process_batch is a few
// per cent of a hop), so core-only changes should show no change.
#include <algorithm>
#include <cstring>

#include "dip/core/ip.hpp"
#include "dip/mesh/control.hpp"
#include "dip/mesh/mesh_net.hpp"
#include "dip/netsim/topology.hpp"
#include "layers.hpp"
#include "oracles.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kRows = 9;
constexpr std::size_t kCols = 12;
constexpr std::size_t kRouters = kRows * kCols;
constexpr std::size_t kFlows = 256;
constexpr double kZipfExponent = 1.0;
constexpr std::size_t kScheduleLen = std::size_t{1} << 16;
constexpr std::size_t kWindow = 512;
// Frozen offered load of the latency phase (probes per second).
constexpr double kOfferedRate = 20'000;
constexpr std::uint64_t kDiscoverBudgetNs = 10 * dip::kSecond;
constexpr std::uint64_t kDrainBudgetNs = 2 * dip::kSecond;
/// The control plane idles during traffic; its publish path is probed on a
/// private copy of router 0's table between capacity slices (RouteProbe).
constexpr int kProbeUpdatesPerSlice = 1000;
constexpr int kMeshSetups = 16;
constexpr std::size_t kHeaderBytes = 26;  // DIP-32 header; the probe follows

struct Flow {
  std::uint16_t src = 0;
  std::uint16_t dst = 0;
};

struct Inputs {
  std::vector<Flow> flows;
  std::vector<std::uint16_t> schedule;  ///< flow index of probe i (cycled)
  std::string digest;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  Rng rng(seed ^ 0x3E5Bull);
  netsim::ZipfSampler zipf(kRouters, kZipfExponent, seed ^ 0x21F);
  for (std::size_t f = 0; f < kFlows; ++f) {
    Flow flow;
    flow.src = static_cast<std::uint16_t>(rng.below(kRouters));
    flow.dst = static_cast<std::uint16_t>(zipf.sample());
    if (flow.dst == flow.src) flow.dst = static_cast<std::uint16_t>((flow.dst + 1) % kRouters);
    in.flows.push_back(flow);
  }
  in.schedule.resize(kScheduleLen);
  for (auto& s : in.schedule) s = static_cast<std::uint16_t>(rng.below(kFlows));
  Digest d;
  for (const Flow& f : in.flows) d.add((std::uint64_t{f.src} << 16) | f.dst);
  for (const std::uint16_t s : in.schedule) d.add(s);
  in.digest = d.hex();
  return in;
}

std::unique_ptr<mesh::MeshNet> set_up(std::uint64_t seed) {
  mesh::MeshConfig cfg;  // real UDP, steady clock, no impairments
  cfg.fault_seed = seed;
  auto net = std::make_unique<mesh::MeshNet>(cfg);
  net->build_torus(kRows, kCols);
  if (!net->discover(kDiscoverBudgetNs)) {
    throw std::runtime_error("mesh_torus: discovery did not converge");
  }
  net->recompute_routes();
  return net;
}

/// Mesh-wide sums read at phase and slice boundaries.
struct MeshTotals {
  std::uint64_t delivered = 0;
  std::uint64_t processed = 0;
  std::uint64_t batches = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t parallel_relaxed = 0;
  std::uint64_t parallel_fallback = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t reads = 0;
};

MeshTotals totals(mesh::MeshNet& net) {
  MeshTotals t;
  for (std::size_t i = 0; i < net.size(); ++i) {
    mesh::MeshRouter& r = net.router(i);
    t.delivered += r.ledger().delivered;
    const auto& c = r.env().counters;
    t.processed += c.processed;
    t.batches += c.batches;
    t.cache_hits += c.flow_cache_hits;
    t.cache_misses += c.flow_cache_misses;
    t.parallel_relaxed += c.parallel_relaxed;
    t.parallel_fallback += c.parallel_fallback;
  }
  t.wakeups = net.loop().stats().wakeups;
  t.reads = net.loop().stats().reads_dispatched;
  return t;
}

/// Injects probes, checks every delivery, and keeps the phase bookkeeping.
class Prober {
 public:
  Prober(mesh::MeshNet& net, const Inputs& in, std::uint64_t seed)
      : net_(net), in_(in), seed_(seed) {
    for (const Flow& f : in.flows) {
      auto h = core::make_dip32_header(mesh::addr_of(net.router(f.dst).node_id()),
                                       mesh::addr_of(net.router(f.src).node_id()))
                   ->serialize();
      if (h.size() != kHeaderBytes) throw std::runtime_error("mesh_torus: header size");
      h.resize(kMeshPacketBytes);
      templates_.push_back(std::move(h));
    }
    net.set_delivery([this](std::size_t node, std::span<const std::uint8_t> packet,
                            std::uint64_t now) { on_delivery(node, packet, now); });
  }

  // ---- capacity phase: closed loop with a fixed window ---------------------
  void start_closed_loop(std::size_t window) {
    closed_loop_ = true;
    credits_ = window;
    schedule_refill(net_.loop().now_ns());
  }
  void stop_closed_loop() { closed_loop_ = false; }

  // ---- latency phase: open loop at a fixed rate ----------------------------
  void start_open_loop(double rate, std::uint64_t until) {
    gap_ns_ = 1e9 / rate;
    open_start_ = net_.loop().now_ns();
    open_until_ = until;
    open_sent_ = 0;
    measure_latency_ = true;
    net_.loop().schedule_at(open_start_, [this] { open_tick(); });
  }

  /// Run the loop until every probe has arrived or the budget passes.
  void drain(std::uint64_t budget_ns) {
    const std::uint64_t deadline = net_.loop().now_ns() + budget_ns;
    while (in_flight_ > 0 && net_.loop().now_ns() < deadline) {
      net_.loop().run(net_.loop().now_ns() + dip::kMillisecond);
    }
  }

  std::vector<double> inject_us;   ///< per MeshRouter::inject call
  std::vector<double> latency_us;  ///< open-loop probes, from due time
  std::vector<double> lateness_us; ///< open-loop generator, injection - due
  std::uint64_t injected() const noexcept { return next_id_; }
  std::uint64_t arrived() const noexcept { return arrived_; }
  std::uint64_t in_flight() const noexcept { return in_flight_; }
  std::uint64_t misdelivered = 0;
  std::uint64_t damaged = 0;
  std::uint64_t duplicates = 0;

 private:
  void inject(std::uint64_t due) {
    const std::uint64_t id = next_id_++;
    const std::uint16_t flow_index = in_.schedule[id % kScheduleLen];
    const Flow& flow = in_.flows[flow_index];
    packet_ = templates_[flow_index];
    write_probe(std::span(packet_).subspan(kHeaderBytes), seed_, id, due);
    flow_of_.push_back(flow_index);
    arrived_flag_.push_back(0);
    ++in_flight_;
    const std::uint64_t t0 = now_ns();
    net_.router(flow.src).inject(packet_, net_.local_face_of(flow.src));
    inject_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }

  void schedule_refill(std::uint64_t at) {
    if (refill_pending_) return;
    refill_pending_ = true;
    net_.loop().schedule_at(at, [this] {
      refill_pending_ = false;
      for (; closed_loop_ && credits_ > 0; --credits_) inject(net_.loop().now_ns());
    });
  }

  void open_tick() {
    const std::uint64_t now = net_.loop().now_ns();
    while (true) {
      const std::uint64_t due =
          open_start_ + static_cast<std::uint64_t>(static_cast<double>(open_sent_) * gap_ns_);
      if (due >= open_until_) {
        measure_latency_ = open_sent_ > 0;
        return;
      }
      if (due > now) {
        net_.loop().schedule_at(due, [this] { open_tick(); });
        return;
      }
      lateness_us.push_back(static_cast<double>(now - due) / 1e3);
      inject(due);
      ++open_sent_;
    }
  }

  void on_delivery(std::size_t node, std::span<const std::uint8_t> packet,
                   std::uint64_t now) {
    const auto probe = packet.size() == kMeshPacketBytes
                           ? read_probe(packet.subspan(kHeaderBytes), seed_)
                           : std::nullopt;
    if (!probe || probe->id >= arrived_flag_.size()) {
      ++damaged;
      return;
    }
    if (arrived_flag_[probe->id] != 0) {
      ++duplicates;
      return;
    }
    arrived_flag_[probe->id] = 1;
    ++arrived_;
    --in_flight_;
    if (in_.flows[flow_of_[probe->id]].dst != node) ++misdelivered;
    if (measure_latency_) {
      latency_us.push_back(static_cast<double>(now - probe->due_ns) / 1e3);
    }
    if (closed_loop_) {
      ++credits_;
      schedule_refill(now);
    }
  }

  mesh::MeshNet& net_;
  const Inputs& in_;
  std::uint64_t seed_;
  std::vector<std::vector<std::uint8_t>> templates_;
  std::vector<std::uint8_t> packet_;
  std::vector<std::uint16_t> flow_of_;
  std::vector<std::uint8_t> arrived_flag_;
  std::uint64_t next_id_ = 0;
  std::uint64_t arrived_ = 0;
  std::uint64_t in_flight_ = 0;
  bool closed_loop_ = false;
  bool refill_pending_ = false;
  std::size_t credits_ = 0;
  double gap_ns_ = 0;
  std::uint64_t open_start_ = 0;
  std::uint64_t open_until_ = 0;
  std::uint64_t open_sent_ = 0;
  bool measure_latency_ = false;
};

}  // namespace

std::string mesh_torus_digest(std::uint64_t seed) { return make_inputs(seed).digest; }

void run_mesh_torus(const Options& opt, Report& report) {
  const Inputs in = make_inputs(opt.seed);
  report.note("input digest " + in.digest);

  CpuRotation cpus;
  std::vector<double> setup_s;
  std::unique_ptr<mesh::MeshNet> net;
  for (int k = 0; k < kMeshSetups; ++k) {
    cpus.next();
    net.reset();
    const std::uint64_t t0 = now_ns();
    net = set_up(opt.seed);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  report.set("setup_s", median(setup_s), "s");
  mesh::MeshEventLoop& loop = net->loop();
  Prober prober(*net, in, opt.seed);

  // ---- capacity phase -------------------------------------------------------
  std::vector<std::unique_ptr<telemetry::RouterStats>> parked(net->size());
  if (opt.trace) {
    for (auto& p : parked) p = telemetry::make_router_stats();
  }
  bool stats_on = false;
  const auto phase_ns = static_cast<std::uint64_t>(opt.seconds * 1e9 / 2);
  // Untraced capacity slices feed `hops` (delivered frames, with the inject
  // call times) and `pps` (process_batch packets); in a traced run every
  // other slice runs with RouterEnv::stats installed on every router.
  SliceSeries hops, pps, hops_on, lat;
  RouteProbe probe(*net->router(0).env().fib32_view());
  const MeshTotals cap_start = totals(*net);
  const std::uint64_t cap_end = loop.now_ns() + phase_ns;
  MeshTotals slice_from = cap_start;
  std::uint64_t slice_at = loop.now_ns();
  std::function<void()> capacity_tick = [&] {
    const std::uint64_t now = loop.now_ns();
    const MeshTotals t = totals(*net);
    const double secs = static_cast<double>(now - slice_at) / 1e9;
    const auto delivered = static_cast<double>(t.delivered - slice_from.delivered);
    if (stats_on) {
      hops_on.close(delivered, secs);
      prober.inject_us.clear();
    } else {
      hops.close(delivered, secs, &prober.inject_us);
      pps.close(static_cast<double>(t.processed - slice_from.processed), secs);
    }
    probe.run(kProbeUpdatesPerSlice);
    cpus.next();
    slice_from = totals(*net);
    slice_at = loop.now_ns();
    if (opt.trace) {
      for (std::size_t i = 0; i < net->size(); ++i) {
        std::swap(net->router(i).env().stats, parked[i]);
      }
      stats_on = !stats_on;
    }
    if (now + kSliceNs <= cap_end) loop.schedule_at(now + kSliceNs, capacity_tick);
  };
  loop.schedule_at(slice_at + kSliceNs, capacity_tick);
  prober.start_closed_loop(kWindow);
  loop.run(cap_end);
  prober.stop_closed_loop();
  const MeshTotals cap_stop = totals(*net);
  const std::uint64_t cap_probes = prober.arrived();
  prober.drain(kDrainBudgetNs);
  if (opt.trace && stats_on) {
    for (std::size_t i = 0; i < net->size(); ++i) {
      std::swap(net->router(i).env().stats, parked[i]);
    }
  }

  // ---- latency phase --------------------------------------------------------
  // Probes are timed from their due time; each slice summarises the probes
  // that arrived in it. Arrivals after the phase's last slice are checked
  // but not timed.
  const std::uint64_t lat_end = loop.now_ns() + phase_ns;
  std::uint64_t arrived_from = prober.arrived();
  slice_at = loop.now_ns();
  std::function<void()> latency_tick = [&] {
    const std::uint64_t now = loop.now_ns();
    lat.close(static_cast<double>(prober.arrived() - arrived_from),
              static_cast<double>(now - slice_at) / 1e9, &prober.latency_us);
    arrived_from = prober.arrived();
    cpus.next();
    slice_at = loop.now_ns();
    if (now + kSliceNs <= lat_end) loop.schedule_at(now + kSliceNs, latency_tick);
  };
  loop.schedule_at(slice_at + kSliceNs, latency_tick);
  prober.inject_us.clear();
  prober.start_open_loop(kOfferedRate, lat_end);
  loop.run(lat_end);
  prober.drain(kDrainBudgetNs);
  report.set("peak_rss_mb", peak_rss_mb(), "MB");

  report.set("mesh_hops_per_s", hops.rate(), "1/s");
  report.set("fwd_pps", pps.rate(), "1/s");
  report.set("fwd_burst_p50_us", hops.p50(), "us");
  report.set("fwd_burst_p99_us", hops.p99(), "us");
  report.set("mesh_lat_p50_us", lat.p50(), "us");
  report.set("mesh_lat_p99_us", lat.p99(), "us");
  report.note(hops.summary("mesh_hops_per_s / fwd_burst (MeshRouter::inject calls)"));
  report.note(lat.summary("mesh_lat (probes arrived per second)"));
  report.note(format("capacity: window %zu, %llu probes arrived; latency: offered %.0f "
                     "probes/s",
                     kWindow, static_cast<unsigned long long>(cap_probes), kOfferedRate));

  emit_ctrl_layer(report, probe.sample(), kProbeUpdatesPerSlice);

  // ---- oracles --------------------------------------------------------------
  const bool quiet = net->quiesce(5 * dip::kSecond);
  const mesh::WireLedger ledger = net->aggregate_ledger();
  report.attempted += prober.injected();
  report.failed += prober.in_flight() + prober.misdelivered + prober.damaged +
                   prober.duplicates;
  report.check("mesh_torus.probes",
               prober.in_flight() + prober.misdelivered + prober.damaged + prober.duplicates == 0,
               format("%llu injected, %llu lost, %llu misdelivered, %llu damaged, %llu duplicated",
                      static_cast<unsigned long long>(prober.injected()),
                      static_cast<unsigned long long>(prober.in_flight()),
                      static_cast<unsigned long long>(prober.misdelivered),
                      static_cast<unsigned long long>(prober.damaged),
                      static_cast<unsigned long long>(prober.duplicates)));
  const bool balanced = quiet && ledger_ok(ledger);
  if (!balanced) ++report.failed;
  report.check("mesh_torus.ledger", balanced,
               format("quiesced=%d imbalance=%lld lost=%llu blackholed=%llu dropped=%llu",
                      quiet ? 1 : 0, static_cast<long long>(ledger.imbalance()),
                      static_cast<unsigned long long>(ledger.lost),
                      static_cast<unsigned long long>(ledger.blackholed),
                      static_cast<unsigned long long>(ledger.dropped)));
  if (!opt.trace) return;

  // ---- traced run: per-layer metrics ----------------------------------------
  CoreSample core;
  core.counters.processed = cap_stop.processed - cap_start.processed;
  core.counters.batches = cap_stop.batches - cap_start.batches;
  core.counters.flow_cache_hits = cap_stop.cache_hits - cap_start.cache_hits;
  core.counters.flow_cache_misses = cap_stop.cache_misses - cap_start.cache_misses;
  core.counters.parallel_relaxed = cap_stop.parallel_relaxed - cap_start.parallel_relaxed;
  core.counters.parallel_fallback = cap_stop.parallel_fallback - cap_start.parallel_fallback;
  for (std::size_t i = 0; i < net->size(); ++i) {
    const auto& s = net->router(i).env().stats ? net->router(i).env().stats : parked[i];
    if (s) core.add_stats(*s);
  }
  emit_core_layer(report, core);
  report.set("telemetry.stats_overhead_frac", hops_on.rate() / hops.rate(), "ratio");

  const double hop_ns = 1e9 / hops.rate();
  const double cap_hops = static_cast<double>(cap_stop.delivered - cap_start.delivered);
  report.set("mesh.hops_per_pkt",
             static_cast<double>(ledger.delivered) / static_cast<double>(prober.arrived()),
             "count");
  report.set("mesh.hop_ns", hop_ns, "ns");
  report.set("mesh.loop.wakeups_per_hop",
             static_cast<double>(cap_stop.wakeups - cap_start.wakeups) / cap_hops, "ratio");
  report.set("mesh.loop.reads_per_wakeup",
             static_cast<double>(cap_stop.reads - cap_start.reads) /
                 static_cast<double>(cap_stop.wakeups - cap_start.wakeups),
             "ratio");
  const HopCalibration cal = hop_calibration_leg(report);
  report.set("mesh.hop.residual_frac", 1.0 - (cal.total() + core.ns_per_pkt()) / hop_ns,
             "ratio");
  report.set("mesh.ledger.dropped", static_cast<double>(ledger.dropped), "count");
  report.set("mesh.ledger.seq_gaps", static_cast<double>(ledger.seq_gaps), "count");
  report.set("mesh.gen.lateness_p99_us", quantile(prober.lateness_us, 0.99), "us");
  report.note(format("hop ledger (ns): hop %.0f = send %.0f + recv %.0f + encode %.0f + "
                     "decode %.0f + router %.0f + residual",
                     hop_ns, cal.send_ns, cal.recv_ns, cal.encode_ns, cal.decode_ns,
                     core.ns_per_pkt()));

  // Uncached lookup() replay of the probe destinations on router 0's FIB.
  const fib::Ipv4Lpm* fib32 = net->router(0).env().fib32_view();
  std::vector<fib::Ipv4Addr> dsts;
  for (const std::uint16_t f : in.schedule) {
    dsts.push_back(mesh::addr_of(net->router(in.flows[f].dst).node_id()));
  }
  std::vector<double> chunks;
  std::uint32_t sink = 0;
  for (int c = 0; c < 8; ++c) {
    const std::uint64_t t0 = now_ns();
    for (const auto& a : dsts) sink ^= fib32->lookup(a).value_or(0);
    chunks.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(dsts.size()));
  }
  report.set("fib.lookup_ns", median(chunks), "ns");
  double depth = 0;
  for (const auto& a : dsts) depth += static_cast<double>(fib32->lookup_depth(a));
  report.set("fib.lookup_depth_mean", depth / static_cast<double>(dsts.size()), "nodes");
  report.set("fib.bytes_per_prefix",
             static_cast<double>(fib32->memory_bytes()) / static_cast<double>(fib32->size()),
             "B");
  report.note(format("fib.lookup_ns over %zu destinations on router 0 (sink %u)", dsts.size(),
                     sink));
  report.set("pit.occupancy_max", 0.0, "count");
  report.set("pit.data_hit_ratio", 0.0, "ratio");
}

}  // namespace perfbench
