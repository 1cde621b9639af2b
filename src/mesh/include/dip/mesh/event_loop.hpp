// MeshEventLoop — the reactor under every mesh process: one level-triggered
// epoll set over nonblocking UDP sockets plus a deterministic timer queue.
//
// netsim's EventLoop advances a simulated clock; here time is real, so the
// loop's only promise is *ordering* determinism: timers fire strictly by
// (deadline, schedule sequence), socket handlers run in registration order
// within a wakeup, and fd churn (add/remove from inside a callback) takes
// effect at the next dispatch round — a handler can retire its own socket
// without invalidating the round in progress.
//
// A round costs what is ready, not what is registered: one epoll_wait(0)
// names the ready kernel sockets (by SocketId, which rises with
// registration order), and only those handlers run. In-memory sockets
// (fd() < 0) have no kernel handle and are asked poll_readable() at their
// turn instead.
//
// Tests run the loop against a ManualClock and MockFabric sockets: no real
// sleeps, no kernel, bit-for-bit reproducible. run_ready()/run_until_idle()
// are the non-blocking stepping API those tests (and in-process drivers)
// use; run() is the blocking production entry that parks in epoll_pwait2
// until the next timer (to the nanosecond) or readable fd.
#pragma once

#include <sys/epoll.h>

#include <cstdint>
#include <ctime>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <set>
#include <vector>

#include "dip/mesh/socket.hpp"
#include "dip/telemetry/exposition.hpp"

namespace dip::mesh {

/// Nanosecond clock seam. SteadyClock is the production monotonic clock;
/// ManualClock is test-advanced (never moves on its own).
class MeshClock {
 public:
  virtual ~MeshClock() = default;
  [[nodiscard]] virtual std::uint64_t now_ns() const = 0;
};

class SteadyClock final : public MeshClock {
 public:
  SteadyClock();
  [[nodiscard]] std::uint64_t now_ns() const override;

 private:
  std::uint64_t epoch_ns_ = 0;  ///< construction instant → t=0
};

class ManualClock final : public MeshClock {
 public:
  [[nodiscard]] std::uint64_t now_ns() const override { return now_; }
  void set(std::uint64_t ns) noexcept { now_ = ns; }
  void advance(std::uint64_t ns) noexcept { now_ += ns; }

 private:
  std::uint64_t now_ = 0;
};

struct LoopStats {
  std::uint64_t wakeups = 0;        ///< run_ready rounds executed
  std::uint64_t timers_fired = 0;
  std::uint64_t reads_dispatched = 0;  ///< socket handler invocations
};

class MeshEventLoop {
 public:
  using Callback = std::function<void()>;
  using SocketId = std::uint32_t;
  using TimerId = std::uint64_t;

  /// Longest single park: run() re-checks stop()/deadline at least this
  /// often even with nothing due.
  static constexpr std::uint64_t kMaxParkNs = 1'000'000'000;

  /// `clock` must outlive the loop; nullptr installs an owned SteadyClock.
  /// Throws std::system_error if the epoll set cannot be created.
  explicit MeshEventLoop(MeshClock* clock = nullptr);
  ~MeshEventLoop();

  MeshEventLoop(const MeshEventLoop&) = delete;
  MeshEventLoop& operator=(const MeshEventLoop&) = delete;

  /// The park for a wait of `wait_ns`: exact to the nanosecond, capped at
  /// kMaxParkNs.
  [[nodiscard]] static timespec park_timeout(std::uint64_t wait_ns) noexcept;

  [[nodiscard]] std::uint64_t now_ns() const { return clock_->now_ns(); }
  [[nodiscard]] MeshClock& clock() noexcept { return *clock_; }

  /// Register `socket` with a readability handler. The handler is expected
  /// to drain the socket (recv until kAgain) — level semantics: it is
  /// re-invoked on the next round while the socket stays readable. A
  /// kernel socket joins the epoll set at once (std::system_error if the
  /// kernel refuses it, e.g. the same socket registered twice).
  SocketId add_socket(DatagramSocket& socket, Callback on_readable);
  /// Safe from inside any callback (including the socket's own handler).
  /// The socket leaves the epoll set at once and is never dispatched again;
  /// its entry is compacted away after the round in progress.
  void remove_socket(SocketId id);

  TimerId schedule_at(std::uint64_t at_ns, Callback fn);
  TimerId schedule_in(std::uint64_t delay_ns, Callback fn) {
    return schedule_at(now_ns() + delay_ns, fn);
  }
  /// True if the timer was still pending.
  bool cancel_timer(TimerId id);

  /// One non-blocking round: fire timers due at now, then dispatch every
  /// currently-readable socket once. Returns timers fired + handlers run.
  std::size_t run_ready();

  /// run_ready() until a round does nothing (all timers beyond now, no
  /// socket readable). `max_rounds` bounds pathological feedback loops.
  std::size_t run_until_idle(std::size_t max_rounds = 1u << 20);

  /// Blocking loop: dispatch until stop() or `deadline_ns` (absolute clock
  /// time; ~0 = run until stopped or nothing left to wait for). Parks in
  /// epoll_pwait2 between rounds (ppoll when no kernel socket is
  /// registered) for exactly the time to the next timer or the deadline;
  /// a readable in-memory socket means no park at all. While it runs, the
  /// calling thread's timer slack is 1 ns (restored on return), so the
  /// kernel does not stretch a park by its default 50 us. Returns total
  /// dispatches.
  std::size_t run(std::uint64_t deadline_ns = ~std::uint64_t{0});
  void stop() noexcept { stopped_ = true; }

  [[nodiscard]] std::size_t pending_timers() const noexcept {
    return live_timers_.size();
  }
  /// Delay from now to the earliest pending timer (nullopt = none). Lets a
  /// manual-clock driver advance time straight to the next event.
  [[nodiscard]] std::optional<std::uint64_t> next_timer_delay() const {
    if (live_timers_.empty()) return std::nullopt;
    return ns_to_next_timer();
  }
  [[nodiscard]] std::size_t socket_count() const noexcept;
  [[nodiscard]] const LoopStats& stats() const noexcept { return stats_; }

  /// `dip_mesh_loop_*` series (catalogue in docs/OBSERVABILITY.md).
  void write_stats(telemetry::StatsWriter& w) const;

 private:
  struct Timer {
    std::uint64_t at;
    TimerId id;
    Callback fn;
  };
  struct TimerLater {
    bool operator()(const Timer& a, const Timer& b) const noexcept {
      return a.at != b.at ? a.at > b.at : a.id > b.id;
    }
  };
  struct Source {
    SocketId id;
    DatagramSocket* socket;
    Callback on_readable;
    int fd;  ///< kernel handle in the epoll set; < 0 = in-memory socket
    bool alive = true;
  };

  std::size_t fire_due_timers();
  /// Fill ready_ with the ready kernel sockets' ids, ascending.
  void collect_ready();
  std::size_t dispatch_readable();
  void compact_sources();
  /// True if a live in-memory socket has a datagram waiting.
  [[nodiscard]] bool memory_readable() const;
  /// Nanoseconds until the next pending timer (~0 = none).
  [[nodiscard]] std::uint64_t ns_to_next_timer() const;

  std::unique_ptr<MeshClock> owned_clock_;
  MeshClock* clock_;
  int epoll_fd_ = -1;
  std::vector<Source> sources_;  ///< registration (= SocketId) order
  std::size_t kernel_sources_ = 0;  ///< live sources in the epoll set
  std::size_t memory_sources_ = 0;  ///< live in-memory sources
  bool dispatching_ = false;  ///< defer compaction while iterating sources_
  /// Round scratch, kept so that a round allocates nothing: epoll's event
  /// buffer (one slot per kernel socket), this round's ready ids, and the
  /// timers due this round.
  std::vector<epoll_event> events_;
  std::vector<SocketId> ready_;
  std::vector<Timer> due_;
  SocketId next_socket_id_ = 1;
  TimerId next_timer_id_ = 1;
  std::priority_queue<Timer, std::vector<Timer>, TimerLater> timers_;
  /// Ids scheduled but not yet fired or cancelled (cancel = erase here; the
  /// queue entry is skipped when popped).
  std::set<TimerId> live_timers_;
  bool stopped_ = false;
  LoopStats stats_;
};

}  // namespace dip::mesh
