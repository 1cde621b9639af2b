// Mesh suite (docs/MESH.md, docs/TESTING.md):
//   * frame codec — round trip, truncation vs. malformation vs. checksum;
//   * MeshEventLoop — timer ordering, cancellation, fd churn mid-dispatch,
//     EAGAIN / spurious wakeup / truncated-datagram handling, all against
//     ManualClock + MockFabric (no real sleeps, fixed seeds); then the
//     epoll path on real UdpSockets: registration order within a round,
//     level triggering, removal mid-round, the nanosecond park and its
//     timer slack;
//   * MeshRouter/MeshNet — in-band discovery, SPF route publication,
//     end-to-end forwarding, failed-link convergence;
//   * soak/chaos — seeded FaultPlan impairments with the conservation
//     ledger checked exactly (transmitted + duplicated == delivered + lost
//     + blackholed + dropped) and bit-identical replay under the same seed;
//   * NDN recovery-through-loss over an impaired mesh link;
//   * a two-thread real-UDP exchange (the TSan lane's race probe: routers
//     are thread-confined, datagrams are the only channel).
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dip/core/ip.hpp"
#include "dip/mesh/control.hpp"
#include "dip/mesh/event_loop.hpp"
#include "dip/mesh/frame.hpp"
#include "dip/mesh/impair.hpp"
#include "dip/mesh/mesh_net.hpp"
#include "dip/mesh/node.hpp"
#include "dip/mesh/socket.hpp"
#include "dip/mesh/traffic.hpp"
#include "dip/ndn/ndn.hpp"
#include "dip/netsim/dip_node.hpp"
#include "dip/telemetry/exposition.hpp"

namespace dip::mesh {
namespace {

[[nodiscard]] std::uint8_t frame_check(std::span<const std::uint8_t> first18) {
  std::uint8_t x = 0x5C;
  for (std::size_t i = 0; i < 18; ++i) x ^= first18[i];
  return x;
}

[[nodiscard]] PacketBytes probe_packet(std::uint32_t dst_node,
                                       std::uint32_t src_node) {
  const auto header = core::make_dip32_header(addr_of(dst_node), addr_of(src_node));
  EXPECT_TRUE(header.has_value());
  return header->serialize();
}

// ---- frame codec ----------------------------------------------------------

TEST(MeshFrame, RoundTripPreservesHeaderAndPayload) {
  const PacketBytes payload{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x7F};
  const PacketBytes wire = encode_frame(FrameType::kData, 0x01020304u,
                                        0x1122334455667788ull, payload);
  ASSERT_EQ(wire.size(), FrameHeader::kWireSize + payload.size());

  const auto frame = decode_frame(wire);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->header.type, FrameType::kData);
  EXPECT_EQ(frame->header.src_node, 0x01020304u);
  EXPECT_EQ(frame->header.seq, 0x1122334455667788ull);
  EXPECT_EQ(frame->header.payload_len, payload.size());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), frame->payload.begin()));

  // Empty payload is legal (kBye carries none).
  const PacketBytes bye = encode_frame(FrameType::kBye, 7, 0, {});
  const auto bye_frame = decode_frame(bye);
  ASSERT_TRUE(bye_frame.has_value());
  EXPECT_EQ(bye_frame->header.type, FrameType::kBye);
  EXPECT_TRUE(bye_frame->payload.empty());
}

TEST(MeshFrame, DecodeDistinguishesTruncatedMalformedAndChecksum) {
  const PacketBytes payload{1, 2, 3, 4};
  const PacketBytes wire = encode_frame(FrameType::kData, 9, 42, payload);

  // Shorter than the header: truncated.
  const auto short_hdr = decode_frame(std::span(wire).subspan(0, 10));
  ASSERT_FALSE(short_hdr.has_value());
  EXPECT_EQ(short_hdr.error(), bytes::Error::kTruncated);

  // Header intact but the payload was clipped in flight: truncated.
  const auto clipped = decode_frame(std::span(wire).subspan(0, wire.size() - 2));
  ASSERT_FALSE(clipped.has_value());
  EXPECT_EQ(clipped.error(), bytes::Error::kTruncated);

  // Trailing bytes beyond header+len: malformed (cannot be reframed).
  PacketBytes oversized = wire;
  oversized.push_back(0xFF);
  const auto trailing = decode_frame(oversized);
  ASSERT_FALSE(trailing.has_value());
  EXPECT_EQ(trailing.error(), bytes::Error::kMalformed);

  // Bad magic: malformed.
  PacketBytes bad_magic = wire;
  bad_magic[0] ^= 0xFF;
  const auto magic = decode_frame(bad_magic);
  ASSERT_FALSE(magic.has_value());
  EXPECT_EQ(magic.error(), bytes::Error::kMalformed);

  // A flipped header byte the magic/version checks miss: checksum.
  PacketBytes flipped = wire;
  flipped[8] ^= 0x10;  // inside seq
  const auto check = decode_frame(flipped);
  ASSERT_FALSE(check.has_value());
  EXPECT_EQ(check.error(), bytes::Error::kChecksum);

  // A payload_len claim beyond kMaxPayload: malformed even if the checksum
  // is recomputed to match (hostile datagram, not line noise).
  PacketBytes huge = wire;
  const std::uint16_t claim = FrameHeader::kMaxPayload + 1;
  huge[16] = static_cast<std::uint8_t>(claim >> 8);
  huge[17] = static_cast<std::uint8_t>(claim);
  huge[18] = frame_check(huge);
  const auto hostile = decode_frame(huge);
  ASSERT_FALSE(hostile.has_value());
  EXPECT_EQ(hostile.error(), bytes::Error::kMalformed);
}

// ---- event loop: timers ---------------------------------------------------

TEST(MeshEventLoopTimers, FireInDeadlineThenScheduleOrder) {
  ManualClock clock;
  MeshEventLoop loop(&clock);
  std::vector<int> order;

  loop.schedule_at(100, [&] { order.push_back(1); });  // first at t=100
  loop.schedule_at(50, [&] { order.push_back(2); });
  loop.schedule_at(100, [&] { order.push_back(3); });  // second at t=100
  EXPECT_EQ(loop.pending_timers(), 3u);
  ASSERT_TRUE(loop.next_timer_delay().has_value());
  EXPECT_EQ(*loop.next_timer_delay(), 50u);

  // Nothing is due before the clock reaches the deadlines.
  EXPECT_EQ(loop.run_ready(), 0u);
  EXPECT_TRUE(order.empty());

  clock.set(50);
  EXPECT_EQ(loop.run_ready(), 1u);
  EXPECT_EQ(order, (std::vector<int>{2}));

  clock.set(100);
  EXPECT_EQ(loop.run_ready(), 2u);
  EXPECT_EQ(order, (std::vector<int>{2, 1, 3}));  // same deadline: id order
  EXPECT_EQ(loop.pending_timers(), 0u);
  EXPECT_FALSE(loop.next_timer_delay().has_value());
}

TEST(MeshEventLoopTimers, CancelledTimerNeverFires) {
  ManualClock clock;
  MeshEventLoop loop(&clock);
  bool fired = false;
  const auto id = loop.schedule_at(10, [&] { fired = true; });
  loop.schedule_at(10, [] {});

  EXPECT_TRUE(loop.cancel_timer(id));
  EXPECT_FALSE(loop.cancel_timer(id));  // already gone
  EXPECT_EQ(loop.pending_timers(), 1u);

  clock.set(10);
  EXPECT_EQ(loop.run_ready(), 1u);  // only the surviving timer
  EXPECT_FALSE(fired);
}

TEST(MeshEventLoopTimers, TimerScheduledFromCallbackWaitsForNextRound) {
  ManualClock clock;
  MeshEventLoop loop(&clock);
  int outer = 0, inner = 0;
  loop.schedule_at(0, [&] {
    ++outer;
    loop.schedule_at(0, [&] { ++inner; });  // due immediately
  });

  // The nested timer must not run in the same round (no starvation), but
  // needs no clock advance to run in the next one.
  EXPECT_EQ(loop.run_ready(), 1u);
  EXPECT_EQ(outer, 1);
  EXPECT_EQ(inner, 0);
  EXPECT_EQ(loop.run_ready(), 1u);
  EXPECT_EQ(inner, 1);
}

// ---- event loop: sockets --------------------------------------------------

TEST(MeshEventLoopSockets, ChurnMidDispatchIsSafe) {
  ManualClock clock;
  MeshEventLoop loop(&clock);
  MockFabric fabric;
  auto a = fabric.create(1);
  auto b = fabric.create(2);
  auto c = fabric.create(3);
  auto feeder = fabric.create(99);

  const PacketBytes ping{0x42};
  ASSERT_EQ(feeder->send_to({.port = 1}, ping), IoStatus::kOk);
  ASSERT_EQ(feeder->send_to({.port = 2}, ping), IoStatus::kOk);
  ASSERT_EQ(feeder->send_to({.port = 3}, ping), IoStatus::kOk);  // queued for c

  std::vector<char> order;
  std::vector<std::uint8_t> buf(64);
  MeshEventLoop::SocketId id_a = 0;
  // a's handler retires its own registration and adds c — both take effect
  // at the next dispatch round without invalidating this one.
  id_a = loop.add_socket(*a, [&] {
    order.push_back('a');
    while (a->recv_from(buf).status == IoStatus::kOk) {}
    loop.remove_socket(id_a);
    loop.add_socket(*c, [&] {
      order.push_back('c');
      while (c->recv_from(buf).status == IoStatus::kOk) {}
    });
  });
  loop.add_socket(*b, [&] {
    order.push_back('b');
    while (b->recv_from(buf).status == IoStatus::kOk) {}
  });
  EXPECT_EQ(loop.socket_count(), 2u);

  // Round 1: a then b (registration order); c joined too late for this round.
  EXPECT_EQ(loop.run_ready(), 2u);
  EXPECT_EQ(order, (std::vector<char>{'a', 'b'}));
  EXPECT_EQ(loop.socket_count(), 2u);  // a compacted away, c in

  // Round 2: only c is readable; a's handler must not run again.
  EXPECT_EQ(loop.run_ready(), 1u);
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'c'}));
  EXPECT_EQ(loop.run_ready(), 0u);
}

TEST(MeshEventLoopSockets, MockContractCoversEagainSpuriousAndTruncation) {
  MockFabric fabric;
  auto a = fabric.create(1);
  auto b = fabric.create(2);

  // Scripted EAGAIN on send: the transmit queue is full.
  b->fail_next_sends(1);
  const PacketBytes payload{1, 2, 3};
  EXPECT_EQ(b->send_to({.port = 1}, payload), IoStatus::kAgain);
  EXPECT_EQ(b->send_to({.port = 1}, payload), IoStatus::kOk);

  // Spurious wakeup: one kAgain even though the inbox is nonempty.
  std::vector<std::uint8_t> buf(64);
  a->spurious_wakeup_once();
  EXPECT_TRUE(a->poll_readable());
  EXPECT_EQ(a->recv_from(buf).status, IoStatus::kAgain);
  const RecvOutcome ok = a->recv_from(buf);
  EXPECT_EQ(ok.status, IoStatus::kOk);
  EXPECT_EQ(ok.size, payload.size());
  EXPECT_FALSE(ok.truncated);
  EXPECT_EQ(ok.from.port, 2);

  // Truncation reports the true datagram size, writes only buffer-many.
  const PacketBytes big(100, 0xAB);
  ASSERT_EQ(b->send_to({.port = 1}, big), IoStatus::kOk);
  std::vector<std::uint8_t> small(10);
  const RecvOutcome trunc = a->recv_from(small);
  EXPECT_EQ(trunc.status, IoStatus::kOk);
  EXPECT_TRUE(trunc.truncated);
  EXPECT_EQ(trunc.size, big.size());

  // Datagrams to unbound endpoints vanish, like real UDP.
  EXPECT_EQ(b->send_to({.port = 7777}, payload), IoStatus::kOk);
  EXPECT_EQ(fabric.unrouted(), 1u);
}

TEST(MeshEventLoopTimers, RunReturnsWhenRoundsOverrunTheDeadline) {
  // A due timer moves the clock past run()'s deadline while a later timer
  // is pending. The time left to the deadline must saturate at zero; a
  // wrapped (unsigned) value would park until the later timer, capped at
  // MeshEventLoop::kMaxParkNs of real sleep.
  ManualClock clock;
  MeshEventLoop loop(&clock);
  bool late_fired = false;
  loop.schedule_at(0, [&] { clock.set(2 * kMillisecond); });
  loop.schedule_at(10 * kSecond, [&] { late_fired = true; });

  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(loop.run(kMillisecond), 1u);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::milliseconds(200));
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(loop.pending_timers(), 1u);
}

// ---- event loop: real UDP sockets -------------------------------------------

/// `n` loopback UdpSockets plus a sender that writes to them.
struct UdpBench {
  explicit UdpBench(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) socks.push_back(std::make_unique<UdpSocket>());
  }
  void send(std::size_t i, std::size_t datagrams = 1) {
    const PacketBytes ping{0x42};
    for (std::size_t k = 0; k < datagrams; ++k) {
      ASSERT_EQ(sender.send_to(socks[i]->local_endpoint(), ping), IoStatus::kOk);
    }
  }
  /// Receive one datagram from socket `i`; true if there was one.
  bool recv_one(std::size_t i) {
    std::vector<std::uint8_t> buf(64);
    return socks[i]->recv_from(buf).status == IoStatus::kOk;
  }
  void drain(std::size_t i) {
    while (recv_one(i)) {}
  }

  UdpSocket sender;
  std::vector<std::unique_ptr<UdpSocket>> socks;
};

TEST(MeshEventLoopUdp, ReadySocketsDispatchInRegistrationOrder) {
  MeshEventLoop loop;
  UdpBench bench(5);
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < bench.socks.size(); ++i) {
    loop.add_socket(*bench.socks[i], [&, i] {
      order.push_back(i);
      bench.drain(i);
    });
  }
  EXPECT_EQ(loop.socket_count(), 5u);
  EXPECT_EQ(loop.run_ready(), 0u);  // nothing sent yet

  // Loopback sendto queues on the receiver before it returns, so all four
  // are ready for the next round; they arrive in reverse order.
  for (const std::size_t i : {4u, 3u, 1u, 0u}) bench.send(i);
  EXPECT_EQ(loop.run_ready(), 4u);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 3, 4}));
  EXPECT_EQ(loop.run_ready(), 0u);  // all drained
  EXPECT_EQ(loop.stats().reads_dispatched, 4u);
}

TEST(MeshEventLoopUdp, UndrainedSocketIsDispatchedAgainNextRound) {
  MeshEventLoop loop;
  UdpBench bench(2);
  std::vector<std::size_t> order;
  // Socket 0 reads one datagram per dispatch; socket 1 drains.
  loop.add_socket(*bench.socks[0], [&] {
    order.push_back(0);
    EXPECT_TRUE(bench.recv_one(0));
  });
  loop.add_socket(*bench.socks[1], [&] {
    order.push_back(1);
    bench.drain(1);
  });
  bench.send(0, 3);
  bench.send(1, 3);

  EXPECT_EQ(loop.run_ready(), 2u);
  EXPECT_EQ(loop.run_ready(), 1u);  // level-triggered: 0 still holds two
  EXPECT_EQ(loop.run_ready(), 1u);
  EXPECT_EQ(loop.run_ready(), 0u);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 0, 0}));
}

TEST(MeshEventLoopUdp, HandlerRemovesItselfAndALaterSocketMidRound) {
  MeshEventLoop loop;
  UdpBench bench(3);
  std::vector<std::size_t> order;
  MeshEventLoop::SocketId ids[3] = {};
  // Socket 0's handler retires itself and socket 1 (ready, later in the
  // round) without reading: both stay readable in the kernel.
  ids[0] = loop.add_socket(*bench.socks[0], [&] {
    order.push_back(0);
    loop.remove_socket(ids[0]);
    loop.remove_socket(ids[1]);
  });
  ids[1] = loop.add_socket(*bench.socks[1], [&] { order.push_back(1); });
  ids[2] = loop.add_socket(*bench.socks[2], [&] {
    order.push_back(2);
    bench.drain(2);
  });
  for (std::size_t i = 0; i < 3; ++i) bench.send(i);

  EXPECT_EQ(loop.run_ready(), 2u);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 2}));  // 1 never ran
  EXPECT_EQ(loop.socket_count(), 1u);
  EXPECT_EQ(loop.run_ready(), 0u);

  // No stale epoll entry: a still-readable removed socket left in the set
  // would end every park at once and spin the loop for the whole 20 ms.
  const std::uint64_t wakeups = loop.stats().wakeups;
  EXPECT_EQ(loop.run(loop.now_ns() + 20 * kMillisecond), 0u);
  EXPECT_LT(loop.stats().wakeups - wakeups, 10u);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 2}));

  // The removed sockets may be registered again under fresh ids.
  loop.add_socket(*bench.socks[1], [&] {
    order.push_back(1);
    bench.drain(1);
  });
  EXPECT_EQ(loop.run_ready(), 1u);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 2, 1}));
}

TEST(MeshEventLoopUdp, ParkTimeoutIsExactToTheNanosecond) {
  const auto park = [](std::uint64_t ns) {
    const timespec ts = MeshEventLoop::park_timeout(ns);
    return std::pair<std::int64_t, std::int64_t>{ts.tv_sec, ts.tv_nsec};
  };
  using P = std::pair<std::int64_t, std::int64_t>;
  EXPECT_EQ(park(0), (P{0, 0}));
  EXPECT_EQ(park(1), (P{0, 1}));
  EXPECT_EQ(park(50'000), (P{0, 50'000}));  // 50 us: no rounding up to 1 ms
  EXPECT_EQ(park(999'999), (P{0, 999'999}));
  EXPECT_EQ(park(1'000'001), (P{0, 1'000'001}));
  EXPECT_EQ(park(999'999'999), (P{0, 999'999'999}));
  EXPECT_EQ(park(MeshEventLoop::kMaxParkNs), (P{1, 0}));
  EXPECT_EQ(park(2'500'000'000), (P{1, 0}));  // capped
  EXPECT_EQ(park(~std::uint64_t{0}), (P{1, 0}));
}

TEST(MeshEventLoopUdp, RunParksWithNanosecondTimerSlackAndRestoresIt) {
  // The kernel stretches a timed park by the thread's timer slack (50 us by
  // default); run() narrows it to 1 ns while it runs and puts it back.
  const int before = ::prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
  ASSERT_GT(before, 1);
  MeshEventLoop loop;
  UdpSocket sock;
  loop.add_socket(sock, [] {});
  int during = -1;
  loop.schedule_in(10 * kMicrosecond, [&] {
    during = ::prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
    loop.stop();
  });
  (void)loop.run(loop.now_ns() + kSecond);
  EXPECT_EQ(during, 1);
  EXPECT_EQ(::prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0), before);
}

TEST(MeshEventLoopUdp, SubMillisecondTimersFireOnTime) {
  // Loose on purpose (sanitizer builds, loaded hosts): whole-millisecond
  // parks make every 200 us timer at least ~800 us late. With the 1 ns
  // timer slack the median is a few us on an idle host.
  MeshEventLoop loop;
  UdpBench bench(8);
  for (std::size_t i = 0; i < bench.socks.size(); ++i) {
    loop.add_socket(*bench.socks[i], [&, i] { bench.drain(i); });
  }
  constexpr std::uint64_t kAhead = 200 * kMicrosecond;
  std::vector<std::uint64_t> lateness;
  std::function<void()> arm = [&] {
    const std::uint64_t due = loop.now_ns() + kAhead;
    loop.schedule_at(due, [&, due] {
      lateness.push_back(loop.now_ns() - due);
      if (lateness.size() < 20) {
        arm();
      } else {
        loop.stop();
      }
    });
  };
  arm();
  (void)loop.run(loop.now_ns() + 5 * kSecond);
  ASSERT_EQ(lateness.size(), 20u);
  std::sort(lateness.begin(), lateness.end());
  EXPECT_LT(lateness[10], 500 * kMicrosecond);
}

// ---- router wire-path accounting ------------------------------------------

TEST(MeshRouterLedger, SendEagainCountsAsDropped) {
  ManualClock clock;
  MeshEventLoop loop(&clock);
  MockFabric fabric;
  auto sock = fabric.create(1);
  MockSocket* raw = sock.get();
  auto sink = fabric.create(2);

  MeshRouter::Config cfg;
  cfg.node_id = 1;
  std::shared_ptr<const core::OpRegistry> registry = netsim::make_default_registry();
  MeshRouter router(cfg, loop, std::move(sock), registry);
  const FaceId wire = router.add_wire_face(sink->local_endpoint(), 0);
  const FaceId local = router.add_local_face({});
  router.journal().add_route32(fib::Prefix<32>{}, wire);  // default route
  router.journal().flush();

  PacketBytes pkt = probe_packet(2, 1);
  raw->fail_next_sends(1);
  router.inject(pkt, local);
  EXPECT_EQ(router.ledger().transmitted, 1u);
  EXPECT_EQ(router.ledger().dropped, 1u);

  PacketBytes pkt2 = probe_packet(2, 1);
  router.inject(pkt2, local);
  EXPECT_EQ(router.ledger().transmitted, 2u);
  EXPECT_EQ(router.ledger().dropped, 1u);
  EXPECT_EQ(router.ledger().imbalance(), 1);  // one datagram in flight

  // The surviving frame reached the sink and parses; its seq shows the
  // dropped attempt consumed seq 0.
  ASSERT_TRUE(sink->poll_readable());
  std::vector<std::uint8_t> buf(512);
  const RecvOutcome out = sink->recv_from(buf);
  ASSERT_EQ(out.status, IoStatus::kOk);
  const auto frame = decode_frame(std::span(buf.data(), out.size));
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->header.type, FrameType::kData);
  EXPECT_EQ(frame->header.seq, 1u);
}

TEST(MeshRouterLedger, UnknownSourcesAndDecodeErrorsAreCounted) {
  ManualClock clock;
  MeshEventLoop loop(&clock);
  MockFabric fabric;
  auto sock = fabric.create(1);
  auto peer = fabric.create(2);   // registered as a wire face below
  auto rogue = fabric.create(9);  // never registered

  MeshRouter::Config cfg;
  cfg.node_id = 1;
  std::shared_ptr<const core::OpRegistry> registry = netsim::make_default_registry();
  MeshRouter router(cfg, loop, std::move(sock), registry);
  (void)router.add_wire_face(peer->local_endpoint(), 0);

  // Garbage from a known face still counts `delivered` (the sender counted
  // it out) plus a decode error; from an unknown endpoint it is quarantined.
  const PacketBytes junk{1, 2, 3};
  ASSERT_EQ(peer->send_to({.port = 1}, junk), IoStatus::kOk);
  ASSERT_EQ(rogue->send_to({.port = 1}, junk), IoStatus::kOk);
  loop.run_until_idle();

  EXPECT_EQ(router.ledger().delivered, 1u);
  EXPECT_EQ(router.ledger().decode_errors, 1u);
  EXPECT_EQ(router.ledger().unknown_source, 1u);
}

// ---- impairment determinism ----------------------------------------------

TEST(MeshImpair, DecisionsAreDeterministicPerSeedAndOrdinal) {
  netsim::FaultPlan plan;
  plan.drop_rate = 0.3;
  plan.duplicate_rate = 0.2;
  plan.corrupt_rate = 0.1;
  plan.reorder_rate = 0.25;
  plan.reorder_window = 5 * kMillisecond;

  const auto trace = [&](std::uint64_t seed, std::uint32_t ordinal) {
    LinkImpairer imp(plan, seed, ordinal);
    std::vector<std::tuple<bool, bool, bool, std::uint32_t, std::uint64_t>> t;
    for (int i = 0; i < 256; ++i) {
      PacketBytes pkt(32, static_cast<std::uint8_t>(i));
      const ImpairDecision d = imp.next(/*now_ns=*/0, pkt);
      t.emplace_back(d.blackout, d.drop, d.duplicate, d.corrupt_bytes,
                     d.extra_delay_ns);
    }
    return t;
  };

  const auto a = trace(42, 7);
  const auto b = trace(42, 7);
  const auto c = trace(42, 8);
  const auto d = trace(43, 7);
  EXPECT_EQ(a, b);  // same seed + ordinal: bit-identical decision stream
  EXPECT_NE(a, c);  // sibling half-link draws an independent stream
  EXPECT_NE(a, d);  // different mesh seed
}

// ---- discovery, routing, forwarding ---------------------------------------

TEST(MeshNetForwarding, LineTopologyDeliversEndToEnd) {
  ManualClock clock;
  MeshConfig cfg;
  cfg.use_mock = true;
  cfg.clock = &clock;
  MeshNet net(cfg);
  net.build_line(3);

  ASSERT_TRUE(net.discover(kSecond));
  EXPECT_TRUE(net.all_discovered());
  // Every router publishes a route per node (self included): 3 x 3.
  EXPECT_EQ(net.recompute_routes(), 9u);
  // Gossip carried capabilities end to end.
  EXPECT_GT(net.router(0).lsdb().at(3).capabilities.size(), 0u);

  std::vector<std::size_t> delivered_at;
  net.set_delivery([&](std::size_t node, std::span<const std::uint8_t>,
                       std::uint64_t) { delivered_at.push_back(node); });

  PacketBytes pkt = probe_packet(/*dst_node=*/3, /*src_node=*/1);
  net.router(0).inject(pkt, net.local_face_of(0));
  net.loop().run_until_idle();

  ASSERT_EQ(delivered_at.size(), 1u);
  EXPECT_EQ(delivered_at[0], 2u);  // far end of the line

  const WireLedger total = net.aggregate_ledger();
  EXPECT_EQ(total.transmitted, 2u);  // two wire hops
  EXPECT_EQ(total.delivered, 2u);
  EXPECT_EQ(total.seq_gaps, 0u);
  EXPECT_EQ(total.imbalance(), 0);
  EXPECT_TRUE(net.ledger_balanced());
}

TEST(MeshNetForwarding, HundredNodeTorusDiscoversAndRoutes) {
  ManualClock clock;
  MeshConfig cfg;
  cfg.use_mock = true;
  cfg.clock = &clock;
  MeshNet net(cfg);
  net.build_torus(10, 10);

  ASSERT_TRUE(net.discover(10 * kSecond));
  EXPECT_EQ(net.recompute_routes(), 100u * 100u);

  std::size_t delivered_node = ~std::size_t{0};
  net.set_delivery([&](std::size_t node, std::span<const std::uint8_t>,
                       std::uint64_t) { delivered_node = node; });
  PacketBytes pkt = probe_packet(/*dst_node=*/100, /*src_node=*/1);
  net.router(0).inject(pkt, net.local_face_of(0));
  net.loop().run_until_idle();

  EXPECT_EQ(delivered_node, 99u);
  EXPECT_TRUE(net.ledger_balanced());
}

TEST(MeshNetConvergence, LinkFailureReroutesAfterGossip) {
  ManualClock clock;
  MeshConfig cfg;
  cfg.use_mock = true;
  cfg.clock = &clock;
  MeshNet net(cfg);
  net.build_torus(3, 3);
  ASSERT_TRUE(net.discover(kSecond));
  ASSERT_GT(net.recompute_routes(), 0u);

  std::size_t deliveries = 0;
  net.set_delivery([&](std::size_t node, std::span<const std::uint8_t>,
                       std::uint64_t) {
    EXPECT_EQ(node, 1u);
    ++deliveries;
  });

  // Baseline: 1 -> 2 over the direct link.
  PacketBytes pkt = probe_packet(2, 1);
  net.router(0).inject(pkt, net.local_face_of(0));
  net.loop().run_until_idle();
  EXPECT_EQ(deliveries, 1u);
  EXPECT_EQ(net.aggregate_ledger().transmitted, 1u);

  // Take the link down and flood the failure. Until routes are recomputed
  // the stale FIB still points at the dark face: blackholed, not delivered.
  net.fail_link(0, 1);
  net.loop().run_until_idle();
  PacketBytes stale = probe_packet(2, 1);
  net.router(0).inject(stale, net.local_face_of(0));
  net.loop().run_until_idle();
  EXPECT_EQ(deliveries, 1u);
  EXPECT_EQ(net.aggregate_ledger().blackholed, 1u);

  // SPF over the updated LSDBs finds the two-hop detour.
  ASSERT_GT(net.recompute_routes(), 0u);
  PacketBytes rerouted = probe_packet(2, 1);
  net.router(0).inject(rerouted, net.local_face_of(0));
  net.loop().run_until_idle();
  EXPECT_EQ(deliveries, 2u);

  const WireLedger total = net.aggregate_ledger();
  EXPECT_EQ(total.transmitted, 4u);  // 1 direct + 1 blackholed + 2 detour hops
  EXPECT_EQ(total.imbalance(), 0);
}

// ---- control helpers ------------------------------------------------------

TEST(MeshControl, AddressPlanAndSymmetricEdgeSpf) {
  EXPECT_EQ(fib::ipv4_to_u32(addr_of(1)), 0x0A000101u);    // 10.0.1.1
  EXPECT_EQ(fib::ipv4_to_u32(addr_of(256)), 0x0A010001u);  // 10.1.0.1
  EXPECT_EQ(prefix_of(1).length, 24);
  EXPECT_EQ(fib::ipv4_to_u32(prefix_of(1).addr), 0x0A000100u);

  // An edge only exists when both endpoints advertise it.
  LinkStateDb asym;
  asym[1] = Lsa{1, {2}, {}};
  asym[2] = Lsa{1, {}, {}};
  EXPECT_TRUE(compute_next_hops(asym, 1).empty());

  LinkStateDb sym;
  sym[1] = Lsa{1, {2}, {}};
  sym[2] = Lsa{1, {1, 3}, {}};
  sym[3] = Lsa{1, {2}, {}};
  const auto hops = compute_next_hops(sym, 1);
  ASSERT_EQ(hops.size(), 2u);
  EXPECT_EQ(hops.at(2), 2u);
  EXPECT_EQ(hops.at(3), 2u);  // first hop propagates through the BFS
}

// ---- soak: seeded impairments, conservation, replay ------------------------

struct SoakOutcome {
  WireLedger ledger;
  TrafficStats traffic;
};

[[nodiscard]] SoakOutcome run_soak(std::uint64_t seed) {
  ManualClock clock;
  MeshConfig cfg;
  cfg.use_mock = true;
  cfg.clock = &clock;
  cfg.fault_seed = seed;
  MeshNet net(cfg);

  netsim::FaultPlan plan;
  plan.drop_rate = 0.05;
  plan.duplicate_rate = 0.05;
  plan.corrupt_rate = 0.03;
  plan.reorder_rate = 0.10;
  plan.reorder_window = 2 * kMillisecond;
  net.build_torus(3, 3, plan);

  EXPECT_TRUE(net.discover(kSecond));  // gossip is exempt from impairment
  EXPECT_GT(net.recompute_routes(), 0u);

  TrafficConfig tcfg;
  tcfg.flows = 32;
  tcfg.seed = seed;
  tcfg.churn_flows = 4;
  MeshTrafficGen gen(net, tcfg);

  for (int round = 0; round < 15; ++round) {
    EXPECT_EQ(gen.tick(25), 25u);
    net.loop().run_until_idle();
    gen.churn();
    EXPECT_TRUE(net.drain(clock, 100 * kMillisecond));  // flush hold-backs
  }
  EXPECT_TRUE(net.drain(clock, kSecond));
  EXPECT_EQ(net.pending_holdbacks(), 0u);
  return {net.aggregate_ledger(), gen.stats()};
}

TEST(MeshSoak, ConservationLedgerHoldsExactlyUnderImpairments) {
  const SoakOutcome out = run_soak(/*seed=*/1234);

  // Every fault class actually fired.
  EXPECT_GT(out.ledger.lost, 0u);
  EXPECT_GT(out.ledger.duplicated, 0u);
  EXPECT_GT(out.ledger.corrupted, 0u);
  EXPECT_GT(out.ledger.seq_gaps, 0u);  // loss/dup/reorder visible on the wire

  // The equation is exact, not approximate: after the mesh quiesces,
  //   transmitted + duplicated == delivered + lost + blackholed + dropped.
  EXPECT_EQ(out.ledger.imbalance(), 0);

  EXPECT_EQ(out.traffic.sent, 15u * 25u);
  EXPECT_GT(out.traffic.received, 0u);
  EXPECT_GT(out.traffic.flows_churned, 0u);
  // Wire duplication can deliver one probe more than once, so `received`
  // may exceed `sent` — but never by more than the duplicated copies.
  EXPECT_LE(out.traffic.received, out.traffic.sent + out.ledger.duplicated);
}

TEST(MeshSoak, SameSeedReplaysBitIdentically) {
  const SoakOutcome a = run_soak(/*seed=*/77);
  const SoakOutcome b = run_soak(/*seed=*/77);

  EXPECT_EQ(a.ledger.transmitted, b.ledger.transmitted);
  EXPECT_EQ(a.ledger.duplicated, b.ledger.duplicated);
  EXPECT_EQ(a.ledger.delivered, b.ledger.delivered);
  EXPECT_EQ(a.ledger.lost, b.ledger.lost);
  EXPECT_EQ(a.ledger.blackholed, b.ledger.blackholed);
  EXPECT_EQ(a.ledger.dropped, b.ledger.dropped);
  EXPECT_EQ(a.ledger.corrupted, b.ledger.corrupted);
  EXPECT_EQ(a.ledger.seq_gaps, b.ledger.seq_gaps);
  EXPECT_EQ(a.traffic.sent, b.traffic.sent);
  EXPECT_EQ(a.traffic.received, b.traffic.received);
  EXPECT_EQ(a.traffic.latency_sum_ns, b.traffic.latency_sum_ns);
  EXPECT_EQ(a.traffic.latency_max_ns, b.traffic.latency_max_ns);
}

TEST(MeshSoak, StatsExpositionCoversMeshSeries) {
  ManualClock clock;
  MeshConfig cfg;
  cfg.use_mock = true;
  cfg.clock = &clock;
  MeshNet net(cfg);
  net.build_line(2);
  ASSERT_TRUE(net.discover(kSecond));
  ASSERT_GT(net.recompute_routes(), 0u);
  PacketBytes pkt = probe_packet(2, 1);
  net.router(0).inject(pkt, net.local_face_of(0));
  net.loop().run_until_idle();

  telemetry::StatsWriter w;
  net.write_stats(w);
  net.router(0).write_stats(w);
  const std::string& text = w.text();
  EXPECT_NE(text.find("dip_mesh_transmitted_total"), std::string::npos);
  EXPECT_NE(text.find("dip_mesh_delivered_total"), std::string::npos);
  EXPECT_NE(text.find("dip_mesh_loop_wakeups_total"), std::string::npos);
  EXPECT_NE(text.find("node=\"1\""), std::string::npos);
}

// ---- NDN recovery through loss --------------------------------------------

TEST(MeshNdn, InterestRetransmissionRecoversThroughSeededLoss) {
  ManualClock clock;
  MeshConfig cfg;
  cfg.use_mock = true;
  cfg.clock = &clock;
  cfg.fault_seed = 99;
  MeshNet net(cfg);

  netsim::FaultPlan plan;
  plan.drop_rate = 0.45;  // heavy seeded loss on both half-links
  net.build_line(2, plan);
  ASSERT_TRUE(net.discover(kSecond));
  ASSERT_GT(net.recompute_routes(), 0u);

  // Producer: node 2 caches the named payload; F_FIB answers interests from
  // the content store (paper footnote 2) back out the ingress face.
  const std::uint32_t name_code = fib::ipv4_to_u32(addr_of(2));
  const PacketBytes content{0xCA, 0xFE, 0xF0, 0x0D};
  net.router(1).env().content_store.emplace(16);
  net.router(1).env().content_store->insert(name_code, content);

  bool got_data = false;
  net.set_delivery([&](std::size_t node, std::span<const std::uint8_t> packet,
                       std::uint64_t) {
    if (node != 0 || packet.size() < content.size()) return;
    got_data = std::equal(content.begin(), content.end(),
                          packet.end() - static_cast<std::ptrdiff_t>(content.size()));
  });

  // Consumer: retransmit the interest until the data arrives. Each retry
  // advances past the PIT entry lifetime so the retransmission is a fresh
  // interest, not a same-face duplicate the PIT would aggregate away.
  int attempts = 0;
  for (; attempts < 20 && !got_data; ++attempts) {
    const auto header = ndn::make_interest_header32(name_code);
    ASSERT_TRUE(header.has_value());
    PacketBytes interest = header->serialize();
    net.router(0).inject(interest, net.local_face_of(0));
    net.loop().run_until_idle();
    if (got_data) break;
    clock.advance(5 * kSecond);  // > pit::PitTable entry_lifetime (4 s)
    net.loop().run_until_idle();
  }

  EXPECT_TRUE(got_data);
  const WireLedger total = net.aggregate_ledger();
  EXPECT_GT(total.lost, 0u);  // the loss leg was actually exercised
  EXPECT_EQ(total.imbalance(), 0);
}

// ---- thread-confined routers over real UDP (TSan probe) --------------------

TEST(MeshThreaded, RoutersExchangeOverRealUdpFromSeparateThreads) {
  std::shared_ptr<const core::OpRegistry> registry = netsim::make_default_registry();
  auto sock_a = std::make_unique<UdpSocket>();
  auto sock_b = std::make_unique<UdpSocket>();
  const Endpoint ep_a = sock_a->local_endpoint();
  const Endpoint ep_b = sock_b->local_endpoint();
  ASSERT_NE(ep_a.port, 0);
  ASSERT_NE(ep_b.port, 0);

  constexpr std::uint64_t kPackets = 50;
  std::atomic<std::uint64_t> delivered{0};

  // Receiver: its router, loop, and socket live entirely on this thread;
  // the only cross-thread channels are UDP datagrams and the atomic.
  std::thread receiver([&, sock = std::move(sock_b)]() mutable {
    MeshEventLoop loop;
    MeshRouter::Config cfg;
    cfg.node_id = 2;
    MeshRouter router(cfg, loop, std::move(sock), registry);
    (void)router.add_wire_face(ep_a, 1);
    const FaceId local = router.add_local_face(
        [&](std::span<const std::uint8_t>, std::uint64_t) {
          if (delivered.fetch_add(1) + 1 == kPackets) loop.stop();
        });
    router.journal().add_route32(fib::Prefix<32>{}, local);
    router.journal().flush();
    (void)loop.run(loop.now_ns() + 10 * kSecond);
  });

  std::thread sender([&, sock = std::move(sock_a)]() mutable {
    MeshEventLoop loop;
    MeshRouter::Config cfg;
    cfg.node_id = 1;
    MeshRouter router(cfg, loop, std::move(sock), registry);
    const FaceId wire = router.add_wire_face(ep_b, 0);
    const FaceId local = router.add_local_face({});
    router.journal().add_route32(fib::Prefix<32>{}, wire);
    router.journal().flush();
    for (std::uint64_t i = 0; i < kPackets; ++i) {
      PacketBytes pkt = probe_packet(2, 1);
      router.inject(pkt, local);
    }
    EXPECT_EQ(router.ledger().transmitted, kPackets);
    EXPECT_EQ(router.ledger().dropped, 0u);
  });

  sender.join();
  receiver.join();
  EXPECT_EQ(delivered.load(), kPackets);
}

}  // namespace
}  // namespace dip::mesh
