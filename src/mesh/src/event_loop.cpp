#include "dip/mesh/event_loop.hpp"

#include <poll.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <system_error>

namespace dip::mesh {

namespace {

/// Sets the calling thread's timer slack to 1 ns for the guard's lifetime.
/// The kernel otherwise stretches every timed park by up to the default
/// 50 us to batch wakeups, which would undo the nanosecond park.
class PreciseTimers {
 public:
  PreciseTimers() : saved_(::prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0)) {
    if (saved_ > 1) ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  }
  ~PreciseTimers() {
    if (saved_ > 1) ::prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(saved_), 0, 0, 0);
  }
  PreciseTimers(const PreciseTimers&) = delete;
  PreciseTimers& operator=(const PreciseTimers&) = delete;

 private:
  int saved_;  ///< slack in ns before the guard; -1 if it could not be read
};

}  // namespace

SteadyClock::SteadyClock() {
  epoch_ns_ = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t SteadyClock::now_ns() const {
  const auto now = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  return now - epoch_ns_;
}

MeshEventLoop::MeshEventLoop(MeshClock* clock) : clock_(clock) {
  if (clock_ == nullptr) {
    owned_clock_ = std::make_unique<SteadyClock>();
    clock_ = owned_clock_.get();
  }
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    throw std::system_error(errno, std::generic_category(), "mesh epoll_create1()");
  }
}

MeshEventLoop::~MeshEventLoop() { ::close(epoll_fd_); }

timespec MeshEventLoop::park_timeout(std::uint64_t wait_ns) noexcept {
  const std::uint64_t ns = std::min(wait_ns, kMaxParkNs);
  timespec ts{};
  ts.tv_sec = static_cast<std::time_t>(ns / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(ns % 1'000'000'000);
  return ts;
}

MeshEventLoop::SocketId MeshEventLoop::add_socket(DatagramSocket& socket,
                                                  Callback on_readable) {
  const SocketId id = next_socket_id_;
  const int fd = socket.fd();
  if (fd >= 0) {
    epoll_event ev{};
    ev.events = EPOLLIN;  // level-triggered: undrained sockets stay ready
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      throw std::system_error(errno, std::generic_category(), "mesh epoll_ctl(ADD)");
    }
    ++kernel_sources_;
    if (events_.size() < kernel_sources_) events_.resize(kernel_sources_);
  } else {
    ++memory_sources_;
  }
  ++next_socket_id_;
  sources_.push_back({id, &socket, std::move(on_readable), fd, true});
  return id;
}

void MeshEventLoop::remove_socket(SocketId id) {
  for (Source& s : sources_) {
    if (s.id != id || !s.alive) continue;
    s.alive = false;
    if (s.fd >= 0) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, s.fd, nullptr);
      --kernel_sources_;
    } else {
      --memory_sources_;
    }
  }
  if (!dispatching_) compact_sources();
}

void MeshEventLoop::compact_sources() {
  std::erase_if(sources_, [](const Source& s) { return !s.alive; });
}

std::size_t MeshEventLoop::socket_count() const noexcept {
  return kernel_sources_ + memory_sources_;
}

MeshEventLoop::TimerId MeshEventLoop::schedule_at(std::uint64_t at_ns,
                                                  Callback fn) {
  const TimerId id = next_timer_id_++;
  timers_.push({at_ns, id, std::move(fn)});
  live_timers_.insert(id);
  return id;
}

bool MeshEventLoop::cancel_timer(TimerId id) {
  return live_timers_.erase(id) > 0;
}

std::uint64_t MeshEventLoop::ns_to_next_timer() const {
  // Cancelled entries may head the queue; they are popped lazily by
  // fire_due_timers, so peek conservatively (an early wakeup is harmless).
  if (live_timers_.empty()) return ~std::uint64_t{0};
  const std::uint64_t now = clock_->now_ns();
  const std::uint64_t at = timers_.top().at;
  return at > now ? at - now : 0;
}

std::size_t MeshEventLoop::fire_due_timers() {
  // Collect everything due *now* first, then run: a callback that schedules
  // a new already-due timer waits for the next round (no starvation). The
  // scratch vector is borrowed, not iterated in place, so a callback that
  // steps the loop itself cannot clobber this round's list.
  const std::uint64_t now = clock_->now_ns();
  std::vector<Timer> due = std::move(due_);
  while (!timers_.empty() && timers_.top().at <= now) {
    Timer t = std::move(const_cast<Timer&>(timers_.top()));
    timers_.pop();
    if (live_timers_.erase(t.id) > 0) due.push_back(std::move(t));
  }
  for (Timer& t : due) {
    ++stats_.timers_fired;
    t.fn();
  }
  const std::size_t fired = due.size();
  due.clear();
  due_ = std::move(due);
  return fired;
}

void MeshEventLoop::collect_ready() {
  ready_.clear();
  if (kernel_sources_ == 0) return;
  const int n = ::epoll_wait(epoll_fd_, events_.data(),
                             static_cast<int>(events_.size()), 0);
  for (int k = 0; k < n; ++k) {
    ready_.push_back(static_cast<SocketId>(events_[static_cast<std::size_t>(k)].data.u64));
  }
  // Ids rise with registration order, so sorting them yields the order in
  // which sources_ lists the ready sockets.
  std::sort(ready_.begin(), ready_.end());
}

std::size_t MeshEventLoop::dispatch_readable() {
  collect_ready();
  if (ready_.empty() && memory_sources_ == 0) return 0;
  std::size_t ran = 0;
  dispatching_ = true;
  // One walk of sources_ merged with the ascending ready ids. Index loop:
  // handlers may add_socket (append) — new sources join the next round,
  // and the vector may reallocate under us otherwise. In-memory sockets
  // are asked at their turn, so a datagram a handler sends to a later
  // in-memory socket is dispatched within the same round.
  const std::size_t count = sources_.size();
  std::size_t next = 0;  // first ready id not yet passed
  for (std::size_t i = 0; i < count; ++i) {
    if (next == ready_.size() && memory_sources_ == 0) break;
    const Source& s = sources_[i];
    if (!s.alive) continue;
    if (s.fd >= 0) {
      while (next < ready_.size() && ready_[next] < s.id) ++next;
      if (next == ready_.size() || ready_[next] != s.id) continue;
    } else if (!s.socket->poll_readable()) {
      continue;
    }
    ++stats_.reads_dispatched;
    ++ran;
    sources_[i].on_readable();
  }
  dispatching_ = false;
  compact_sources();
  return ran;
}

std::size_t MeshEventLoop::run_ready() {
  ++stats_.wakeups;
  std::size_t n = fire_due_timers();
  n += dispatch_readable();
  return n;
}

std::size_t MeshEventLoop::run_until_idle(std::size_t max_rounds) {
  std::size_t total = 0;
  for (std::size_t round = 0; round < max_rounds; ++round) {
    const std::size_t n = run_ready();
    if (n == 0) break;
    total += n;
  }
  return total;
}

bool MeshEventLoop::memory_readable() const {
  if (memory_sources_ == 0) return false;
  return std::any_of(sources_.begin(), sources_.end(), [](const Source& s) {
    return s.alive && s.fd < 0 && s.socket->poll_readable();
  });
}

std::size_t MeshEventLoop::run(std::uint64_t deadline_ns) {
  stopped_ = false;
  const PreciseTimers precise;
  std::size_t total = 0;
  while (!stopped_) {
    if (clock_->now_ns() >= deadline_ns) break;

    total += run_ready();
    if (stopped_) break;

    // Anything in-memory still readable? Then don't park at all.
    if (memory_readable()) continue;

    // The rounds above may have run past the deadline: saturate, so that a
    // late return parks for nothing rather than for the next timer.
    const std::uint64_t now = clock_->now_ns();
    const std::uint64_t to_deadline = deadline_ns > now ? deadline_ns - now : 0;
    const std::uint64_t wait_ns = std::min(ns_to_next_timer(), to_deadline);
    if (wait_ns == ~std::uint64_t{0} && kernel_sources_ == 0) {
      break;  // nothing to wait for: quiescent
    }
    if (wait_ns == 0) continue;
    const timespec park = park_timeout(wait_ns);
    if (kernel_sources_ > 0) {
      // The ready set it reports is read again by the next round's
      // collect_ready(); level triggering keeps it there.
      ::epoll_pwait2(epoll_fd_, events_.data(), static_cast<int>(events_.size()),
                     &park, nullptr);
    } else {
      // No kernel socket to watch: a bounded sleep to the next timer or the
      // deadline.
      ::ppoll(nullptr, 0, &park, nullptr);
    }
  }
  return total;
}

void MeshEventLoop::write_stats(telemetry::StatsWriter& w) const {
  w.counter("dip_mesh_loop_wakeups_total", {}, stats_.wakeups);
  w.counter("dip_mesh_loop_timers_fired_total", {}, stats_.timers_fired);
  w.counter("dip_mesh_loop_reads_dispatched_total", {}, stats_.reads_dispatched);
  w.gauge("dip_mesh_loop_sockets", {}, static_cast<double>(socket_count()));
  w.gauge("dip_mesh_loop_pending_timers", {},
          static_cast<double>(pending_timers()));
}

}  // namespace dip::mesh
