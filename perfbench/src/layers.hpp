// Per-layer measurement shared by the workloads: the legs that time one
// public call from outside (composition replay, MAC, socket/frame
// calibration), the readers of the program's own counters and histograms,
// and the route-update probe.
#pragma once

#include <memory>

#include "common.hpp"
#include "dip/ctrl/journal.hpp"
#include "dip/fib/lpm.hpp"
#include "dip/telemetry/stats.hpp"

namespace perfbench {

/// core.comp_ns.<composition> (uniform 32-packet bursts of one Table-1
/// composition, 128-byte frames, stats off) and core.fn_ns.<op> (the same
/// replay with per-FN timing on every packet).
void comp_replay_leg(Report& report, double seconds);

/// crypto.mac_ns: one 2EM MAC public call over the 52 bytes F_MAC covers in
/// an OPT header.
void mac_leg(Report& report);

/// Isolated UdpSocket pair at the mesh frame size: mesh.socket.send_ns,
/// mesh.socket.recv_ns, mesh.frame.encode_ns, mesh.frame.decode_ns.
struct HopCalibration {
  double send_ns = 0;
  double recv_ns = 0;
  double encode_ns = 0;
  double decode_ns = 0;
  [[nodiscard]] double total() const noexcept {
    return send_ns + recv_ns + encode_ns + decode_ns;
  }
};
[[nodiscard]] HopCalibration hop_calibration_leg(Report& report);

/// Router-internal counters and histograms of one measured window, summed
/// over every router that carried traffic in it.
struct CoreSample {
  telemetry::CounterSnapshot counters;  ///< deltas over the window
  telemetry::HistogramSnapshot bind;
  telemetry::HistogramSnapshot validate;
  telemetry::HistogramSnapshot dispatch;
  std::uint64_t burst_bound = 0;
  std::uint64_t burst_wave = 0;
  std::uint64_t arena_high_water = 0;

  void add_stats(const telemetry::RouterStats& stats);
  /// Packets per process_batch call (process() counts as a batch of one).
  [[nodiscard]] double pkts_per_batch() const noexcept;
  /// Bind + validate + dispatch phase time per packet.
  [[nodiscard]] double ns_per_pkt() const noexcept;
};

/// Emit the core.* metrics every workload shares, plus
/// mesh.router.pkts_per_batch.
void emit_core_layer(Report& report, const CoreSample& sample);

/// Control-plane publish work of one window: route_update_* samples are
/// per update (scheduled time to end of the publishing flush), flush_ns per
/// publishing flush (JournalStats::last_flush_ns).
struct CtrlSample {
  std::vector<double> update_ms;
  std::vector<double> flush_ns;
  std::uint64_t ops_enqueued = 0;
  std::uint64_t ops_coalesced = 0;
  std::uint64_t publishes = 0;
  std::size_t backlog_max = 0;
};
/// Emit route_update_p50_ms/_p99_ms (SliceSeries figures over chunks of
/// `chunk` consecutive updates) and the ctrl.* metrics.
void emit_ctrl_layer(Report& report, CtrlSample& sample, std::size_t chunk);

/// Route-update probe for workloads whose control plane idles: single-prefix
/// publishes on a private copy of a node's route table (same engine, same
/// size), so the data path's tables and flow cache are untouched. Run in
/// one batch per slice boundary, so its samples span the run and each batch
/// (one route-update chunk) stays on one CPU.
class RouteProbe {
 public:
  explicit RouteProbe(const fib::Ipv4Lpm& table);
  /// `updates` alternating adds and removes of 192.0.2.0/24, each flushed.
  void run(int updates);
  /// The samples so far (counters relative to construction).
  [[nodiscard]] CtrlSample& sample();

 private:
  std::shared_ptr<ctrl::ControlTables> tables_;
  ctrl::RouteJournal journal_;
  ctrl::JournalStats start_;
  CtrlSample sample_;
  std::uint64_t next_ = 0;
};

/// The mesh.* per-hop metrics for an in-process workload, where a packet
/// crosses one router and no socket: one hop per packet, hop_ns the
/// closed-loop wall time per packet, no event loop and no wire ledger.
void emit_in_process_hop(Report& report, double pkts_per_s, double core_ns_per_pkt,
                         double generator_lateness_p99_us);

/// The frame size every mesh probe travels at: a 128-byte DIP-32 packet.
inline constexpr std::size_t kMeshPacketBytes = 128;

}  // namespace perfbench
