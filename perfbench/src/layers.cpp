// Per-layer legs shared by every workload's traced run. Each times one
// public call from outside; none reaches into the program.
#include <algorithm>
#include <cstring>
#include <thread>

#include "layers.hpp"
#include "dip/crypto/mac.hpp"
#include "dip/crypto/random.hpp"
#include "dip/mesh/frame.hpp"
#include "dip/mesh/socket.hpp"
#include "dip/netsim/dip_node.hpp"
#include "table1.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kBurst = 32;

struct Composition {
  const char* name;
  Kind first;   ///< every burst of this kind ...
  Kind second;  ///< ... alternating with this one (NDN interest then data)
};
constexpr Composition kCompositions[] = {
    {"dip32", Kind::kDip32, Kind::kDip32},
    {"dip128", Kind::kDip128, Kind::kDip128},
    {"ndn", Kind::kNdnInterest, Kind::kNdnData},
    {"opt", Kind::kOpt, Kind::kOpt},
    {"ndn_opt", Kind::kNdnOptInterest, Kind::kNdnOptData},
    {"xia", Kind::kXia, Kind::kXia},
};

struct OpName {
  core::OpKey key;
  const char* name;
};
constexpr OpName kOps[] = {
    {core::OpKey::kMatch32, "match32"}, {core::OpKey::kMatch128, "match128"},
    {core::OpKey::kSource, "source"},   {core::OpKey::kFib, "fib"},
    {core::OpKey::kPit, "pit"},         {core::OpKey::kParm, "parm"},
    {core::OpKey::kMac, "mac"},         {core::OpKey::kMark, "mark"},
    {core::OpKey::kDag, "dag"},
};

/// Two bursts of one composition (identical for all but NDN's interest /
/// data pair), each packet 128 bytes.
std::vector<std::vector<std::uint8_t>> composition_bursts(const Table1World& world,
                                                          const Composition& c) {
  std::vector<std::vector<std::uint8_t>> packets;
  for (const Kind kind : {c.first, c.second}) {
    for (std::size_t i = 0; i < kBurst; ++i) {
      std::uint64_t variant = 0;
      switch (kind) {
        case Kind::kDip32: variant = 0x0A010109u; break;
        case Kind::kDip128: variant = 9; break;
        case Kind::kNdnInterest:
        case Kind::kNdnData:
        case Kind::kNdnOptInterest:
        case Kind::kNdnOptData: variant = world.name_top_byte() | (i + 1); break;
        case Kind::kOpt: variant = 1000; break;
        case Kind::kXia: break;
      }
      packets.push_back(world.packet(kind, variant, 128, false));
    }
  }
  return packets;
}

/// Replays the two bursts back to back until `seconds` pass; returns the
/// fast decile (see SliceSeries) of 16 slices' process_batch ns per packet.
double replay(core::Router& router, std::vector<std::vector<std::uint8_t>>& packets,
              const std::vector<std::vector<std::uint8_t>>& templates, double seconds) {
  std::vector<core::PacketRef> refs;
  for (auto& p : packets) refs.emplace_back(p);
  std::vector<core::ProcessResult> results(kBurst);
  const std::span<const core::PacketRef> all(refs);
  std::vector<double> slices;
  const auto slice_ns = static_cast<std::uint64_t>(seconds * 1e9 / 16);
  for (int s = 0; s < 16; ++s) {
    std::uint64_t busy = 0;
    std::uint64_t pkts = 0;
    const std::uint64_t end = now_ns() + slice_ns;
    while (now_ns() < end) {
      for (std::size_t half = 0; half < 2; ++half) {
        for (std::size_t i = half * kBurst; i < (half + 1) * kBurst; ++i) {
          std::memcpy(packets[i].data(), templates[i].data(), templates[i].size());
        }
        const std::uint64_t t0 = now_ns();
        router.process_batch(all.subspan(half * kBurst, kBurst), 0, 0, results);
        busy += now_ns() - t0;
        pkts += kBurst;
      }
    }
    slices.push_back(static_cast<double>(busy) / static_cast<double>(pkts));
  }
  return quantile(slices, 0.1);
}

}  // namespace

void comp_replay_leg(Report& report, double seconds) {
  const Table1World world;
  const auto registry = netsim::make_default_registry();
  const double per_comp = seconds / std::size(kCompositions);
  std::array<telemetry::HistogramSnapshot, telemetry::RouterStats::kOpKeySlots> fn_ns{};
  std::string shape;
  for (const Composition& c : kCompositions) {
    const auto templates = composition_bursts(world, c);
    auto packets = templates;
    Table1Node node = world.make_node(registry.get());
    const double ns = replay(*node.router, packets, templates, per_comp * 0.75);
    report.set(std::string("core.comp_ns.") + c.name, ns, "ns");
    shape += format(" %s=%.0f", c.name, ns);

    // Per-FN module time: the same replay with every packet sampled.
    telemetry::RouterStatsConfig cfg;
    cfg.sample_period = 1;
    node.router->env().stats = telemetry::make_router_stats(cfg);
    (void)replay(*node.router, packets, templates, per_comp * 0.25);
    for (std::size_t k = 0; k < fn_ns.size(); ++k) {
      fn_ns[k] += node.router->env().stats->fn_ns[k].snapshot();
    }
  }
  for (const OpName& op : kOps) {
    const auto& h = fn_ns[static_cast<std::size_t>(op.key) % fn_ns.size()];
    report.set(std::string("core.fn_ns.") + op.name, h.mean(), "ns");
  }
  // Fig. 2: IP-like compositions close together, OPT and NDN+OPT far above
  // them and close to each other.
  const auto ns = [&report](const char* c) {
    return report.metrics.at(std::string("core.comp_ns.") + c).value;
  };
  const double cheap = std::max({ns("dip32"), ns("dip128"), ns("ndn")});
  const double mac_low = std::min(ns("opt"), ns("ndn_opt"));
  const double mac_high = std::max(ns("opt"), ns("ndn_opt"));
  const bool holds = 4 * cheap < mac_low && mac_high < 1.5 * mac_low;
  report.note(format("fig2 shape %s (process_batch ns/pkt, uniform bursts, 128 B):%s",
                     holds ? "holds" : "DOES NOT hold", shape.c_str()));
}

void mac_leg(Report& report) {
  crypto::Xoshiro256 rng(0x3AC);
  const crypto::Em2Mac mac(rng.block());
  std::array<std::uint8_t, 52> data{};  // F_MAC covers 416 bits of the OPT block
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  constexpr int kCalls = 20000;
  std::vector<double> rounds;
  std::uint8_t sink = 0;
  for (int r = 0; r < 15; ++r) {
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < kCalls; ++i) {
      data[0] = static_cast<std::uint8_t>(i);
      sink ^= mac.compute(data)[0];
    }
    rounds.push_back(static_cast<double>(now_ns() - t0) / kCalls);
  }
  report.set("crypto.mac_ns", median(rounds), "ns");
  report.note(format("crypto.mac_ns over %d x %d calls (sink %u)", 15, kCalls, sink));
}

HopCalibration hop_calibration_leg(Report& report) {
  mesh::UdpSocket tx;
  mesh::UdpSocket rx;
  std::vector<std::uint8_t> payload(kMeshPacketBytes, 0x5A);
  std::vector<std::uint8_t> buf(2048);
  std::vector<double> send, recv, encode, decode;
  constexpr int kRounds = 20000;
  std::uint64_t retries = 0;
  for (int i = 0; i < kRounds; ++i) {
    payload[0] = static_cast<std::uint8_t>(i);
    std::uint64_t t0 = now_ns();
    const auto frame = mesh::encode_frame(mesh::FrameType::kData, 1,
                                          static_cast<std::uint64_t>(i), payload);
    std::uint64_t t1 = now_ns();
    encode.push_back(static_cast<double>(t1 - t0));
    t0 = now_ns();
    const mesh::IoStatus st = tx.send_to(rx.local_endpoint(), frame);
    t1 = now_ns();
    if (st != mesh::IoStatus::kOk) {
      ++retries;
      continue;
    }
    send.push_back(static_cast<double>(t1 - t0));
    mesh::RecvOutcome out;
    while (true) {
      t0 = now_ns();
      out = rx.recv_from(buf);
      t1 = now_ns();
      if (out.status == mesh::IoStatus::kOk) break;
      ++retries;
      std::this_thread::yield();
    }
    recv.push_back(static_cast<double>(t1 - t0));
    t0 = now_ns();
    const auto decoded = mesh::decode_frame(std::span(buf.data(), out.size));
    t1 = now_ns();
    if (!decoded) ++retries;
    decode.push_back(static_cast<double>(t1 - t0));
  }
  HopCalibration cal;
  cal.send_ns = median(send);
  cal.recv_ns = median(recv);
  cal.encode_ns = median(encode);
  cal.decode_ns = median(decode);
  report.set("mesh.socket.send_ns", cal.send_ns, "ns");
  report.set("mesh.socket.recv_ns", cal.recv_ns, "ns");
  report.set("mesh.frame.encode_ns", cal.encode_ns, "ns");
  report.set("mesh.frame.decode_ns", cal.decode_ns, "ns");
  report.note(format("hop calibration: %d frames of %zu B on a loopback UdpSocket pair "
                     "(medians; %llu retries)",
                     kRounds, kMeshPacketBytes + mesh::FrameHeader::kWireSize,
                     static_cast<unsigned long long>(retries)));
  return cal;
}

void CoreSample::add_stats(const telemetry::RouterStats& stats) {
  bind += stats.phase_bind.snapshot();
  validate += stats.phase_validate.snapshot();
  dispatch += stats.phase_dispatch.snapshot();
  burst_bound += stats.burst_bound.load();
  burst_wave += stats.burst_wave.load();
  arena_high_water = std::max(arena_high_water, stats.arena_high_water.load());
}

double CoreSample::pkts_per_batch() const noexcept {
  return counters.batches == 0 ? 0.0
                               : static_cast<double>(counters.processed) /
                                     static_cast<double>(counters.batches);
}

double CoreSample::ns_per_pkt() const noexcept {
  const double per_batch = pkts_per_batch();
  if (per_batch == 0) return 0.0;
  return (bind.mean() + validate.mean() + dispatch.mean()) / per_batch;
}

void emit_core_layer(Report& report, const CoreSample& s) {
  const double per_batch = s.pkts_per_batch();
  const auto per_pkt = [per_batch](const telemetry::HistogramSnapshot& h) {
    return per_batch == 0 ? 0.0 : h.mean() / per_batch;
  };
  report.set("core.ns_per_pkt", s.ns_per_pkt(), "ns");
  report.set("core.phase_bind_ns", per_pkt(s.bind), "ns");
  report.set("core.phase_validate_ns", per_pkt(s.validate), "ns");
  report.set("core.phase_dispatch_ns", per_pkt(s.dispatch), "ns");
  report.set("core.flow_cache_hit_ratio", s.counters.flow_cache_hit_rate(), "ratio");
  report.set("core.wave_frac",
             s.burst_bound == 0 ? 0.0
                                : static_cast<double>(s.burst_wave) /
                                      static_cast<double>(s.burst_bound),
             "ratio");
  report.set("core.parallel_relaxed", static_cast<double>(s.counters.parallel_relaxed),
             "count");
  report.set("core.parallel_fallback", static_cast<double>(s.counters.parallel_fallback),
             "count");
  report.set("core.arena_high_water_bytes", static_cast<double>(s.arena_high_water), "B");
  report.set("mesh.router.pkts_per_batch", per_batch, "count");
  report.note(format("core phases from %llu sampled bursts; %llu packets in %llu batches",
                     static_cast<unsigned long long>(s.bind.count),
                     static_cast<unsigned long long>(s.counters.processed),
                     static_cast<unsigned long long>(s.counters.batches)));
}

void emit_ctrl_layer(Report& report, CtrlSample& s, std::size_t chunk) {
  SliceSeries updates;
  std::vector<double> samples;
  for (std::size_t i = 0; i + chunk <= s.update_ms.size(); i += chunk) {
    samples.assign(s.update_ms.begin() + static_cast<std::ptrdiff_t>(i),
                   s.update_ms.begin() + static_cast<std::ptrdiff_t>(i + chunk));
    updates.close(static_cast<double>(chunk), 1.0, &samples);
  }
  report.set("route_update_p50_ms", updates.p50(), "ms");
  report.set("route_update_p99_ms", updates.p99(), "ms");
  const std::size_t flushes = s.flush_ns.size();
  report.set("ctrl.flush_ns_p50", quantile(s.flush_ns, 0.5), "ns");
  report.set("ctrl.flush_ns_p99", quantile(s.flush_ns, 0.99), "ns");
  report.set("ctrl.coalesced_frac",
             s.ops_enqueued == 0 ? 0.0
                                 : static_cast<double>(s.ops_coalesced) /
                                       static_cast<double>(s.ops_enqueued),
             "ratio");
  report.set("ctrl.publishes", static_cast<double>(s.publishes), "count");
  report.set("ctrl.qsbr_backlog_max", static_cast<double>(s.backlog_max), "count");
  report.note(format("route_update over %zu updates in %zu chunks of %zu; flush over %zu "
                     "flushes",
                     s.update_ms.size(), updates.slices(), chunk, flushes));
}

RouteProbe::RouteProbe(const fib::Ipv4Lpm& table)
    : tables_(std::make_shared<ctrl::ControlTables>()), journal_(tables_) {
  journal_.seed(&table);
  start_ = journal_.stats();
}

void RouteProbe::run(int updates) {
  const fib::Prefix<32> prefix{fib::ipv4_from_u32(0xC0000200u), 24};  // 192.0.2.0/24
  for (int i = 0; i < updates; ++i, ++next_) {
    const std::uint64_t t0 = now_ns();
    if (next_ % 2 == 0) {
      journal_.add_route32(prefix, static_cast<fib::NextHop>(1 + next_ % 7));
    } else {
      journal_.remove_route32(prefix);
    }
    journal_.flush();
    sample_.update_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    sample_.flush_ns.push_back(static_cast<double>(journal_.stats().last_flush_ns));
    sample_.backlog_max = std::max(sample_.backlog_max, tables_->domain.backlog());
  }
}

CtrlSample& RouteProbe::sample() {
  const ctrl::JournalStats now = journal_.stats();
  sample_.ops_enqueued = now.ops_enqueued - start_.ops_enqueued;
  sample_.ops_coalesced = now.ops_coalesced - start_.ops_coalesced;
  sample_.publishes = now.snapshots_published - start_.snapshots_published;
  return sample_;
}

void emit_in_process_hop(Report& report, double pkts_per_s, double core_ns_per_pkt,
                         double generator_lateness_p99_us) {
  const double hop_ns = pkts_per_s > 0 ? 1e9 / pkts_per_s : 0.0;
  report.set("mesh.hops_per_pkt", 1.0, "count");
  report.set("mesh.hop_ns", hop_ns, "ns");
  report.set("mesh.loop.wakeups_per_hop", 0.0, "ratio");
  report.set("mesh.loop.reads_per_wakeup", 0.0, "ratio");
  report.set("mesh.hop.residual_frac", hop_ns > 0 ? 1.0 - core_ns_per_pkt / hop_ns : 0.0,
             "ratio");
  report.set("mesh.ledger.dropped", 0.0, "count");
  report.set("mesh.ledger.seq_gaps", 0.0, "count");
  report.set("mesh.gen.lateness_p99_us", generator_lateness_p99_us, "us");
}

}  // namespace perfbench
