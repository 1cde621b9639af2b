#include "table1.hpp"

#include "dip/core/ip.hpp"
#include "dip/crypto/random.hpp"
#include "dip/fib/name_fib.hpp"
#include "dip/ndn/name_codec.hpp"
#include "dip/ndn/ndn.hpp"
#include "dip/opt/opt.hpp"
#include "dip/xia/xia.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kNodeId = 1;
constexpr core::FaceId kDefaultEgress = 1;

struct Route32 {
  std::uint32_t addr;
  std::uint8_t len;
  fib::NextHop nh;
};
constexpr Route32 kRoutes32[] = {
    {0x0A000000u, 8, 1}, {0x0A010000u, 16, 2}, {0x0A010100u, 24, 3}};

struct Route128 {
  fib::Ipv6Addr addr;
  std::uint8_t len;
  fib::NextHop nh;
};
std::vector<Route128> routes128() {
  return {{fib::parse_ipv6("2001:db8::").value(), 32, 1},
          {fib::parse_ipv6("2001:db8:1::").value(), 48, 2}};
}

constexpr fib::NextHop kNameNh = 4;
constexpr fib::NextHop kSidNh = 5;
constexpr fib::NextHop kAdNh = 6;

fib::Prefix<32> name_prefix() {
  return ndn::encode_prefix32(fib::Name::parse("/hotnets"), 1);
}

fib::Xid sid() { return xia::xid_from_label("bench-sid"); }
fib::Xid ad() { return xia::xid_from_label("bench-ad"); }
fib::Xid hid() { return xia::xid_from_label("bench-hid"); }

std::vector<std::uint8_t> finish(bytes::Result<core::DipHeader> header,
                                 std::span<const std::uint8_t> payload,
                                 std::size_t size, bool parallel) {
  header->basic.parallel = parallel;
  std::vector<std::uint8_t> wire = header->serialize();
  wire.insert(wire.end(), payload.begin(), payload.end());
  if (wire.size() < size) wire.resize(size, 0xA5);
  return wire;
}

}  // namespace

Table1World::Table1World()
    : node_secret_(crypto::Xoshiro256(0x5eC0DE + kNodeId).block()),
      name_top_(fib::ipv4_to_u32(name_prefix().addr) & 0xff000000u) {
  crypto::Xoshiro256 rng(0xBE7C);
  const std::vector<crypto::Block> secrets{node_secret_};
  session_ = opt::negotiate_session(rng.block(), secrets, rng.block());
}

Table1Node Table1World::make_node(const core::OpRegistry* registry) const {
  Table1Node node;
  node.tables = std::make_shared<ctrl::ControlTables>();
  node.journal = std::make_unique<ctrl::RouteJournal>(node.tables);
  for (const Route32& r : kRoutes32) {
    node.journal->add_route32({fib::ipv4_from_u32(r.addr), r.len}, r.nh);
  }
  node.journal->add_route32(name_prefix(), kNameNh);
  for (const Route128& r : routes128()) node.journal->add_route128({r.addr, r.len}, r.nh);
  node.journal->add_xid_route(fib::XidType::kSid, sid(), kSidNh);
  node.journal->add_xid_route(fib::XidType::kAd, ad(), kAdNh);
  node.journal->flush();

  core::RouterEnv env;
  env.node_id = kNodeId;
  env.control = node.tables;
  env.ctrl_reader = node.tables->register_reader();
  env.flow_cache = std::make_unique<core::FlowCache>();
  env.default_egress = kDefaultEgress;
  env.node_secret = node_secret_;
  node.router = std::make_unique<core::Router>(std::move(env), registry);
  return node;
}

refmodel::RefNode Table1World::make_ref() const {
  refmodel::RefConfig cfg;
  cfg.node_id = kNodeId;
  cfg.node_secret = node_secret_;
  cfg.default_egress = kDefaultEgress;
  refmodel::RefNode ref(cfg);
  for (const Route32& r : kRoutes32) ref.add_route32(r.addr, r.len, r.nh);
  const fib::Prefix<32> names = name_prefix();
  ref.add_route32(fib::ipv4_to_u32(names.addr), names.length, kNameNh);
  for (const Route128& r : routes128()) ref.add_route128(r.addr.bytes, r.len, r.nh);
  ref.add_xid_route(static_cast<std::uint8_t>(fib::XidType::kSid), sid().bytes, kSidNh);
  ref.add_xid_route(static_cast<std::uint8_t>(fib::XidType::kAd), ad().bytes, kAdNh);
  return ref;
}

std::vector<std::uint8_t> Table1World::packet(Kind kind, std::uint64_t variant,
                                              std::size_t size, bool parallel) const {
  static constexpr std::uint8_t kOptPayload[] = {'b', 'e', 'n', 'c', 'h'};
  const auto src4 = fib::parse_ipv4("172.16.0.1").value();
  switch (kind) {
    case Kind::kDip32:
      return finish(core::make_dip32_header(
                        fib::ipv4_from_u32(static_cast<std::uint32_t>(variant)), src4),
                    {}, size, parallel);
    case Kind::kDip128: {
      fib::Ipv6Addr dst = fib::parse_ipv6("2001:db8::").value();
      for (int i = 0; i < 8; ++i) {
        dst.bytes[static_cast<std::size_t>(4 + i)] =
            static_cast<std::uint8_t>(variant >> (8 * (7 - i)));
      }
      return finish(core::make_dip128_header(dst, fib::parse_ipv6("2001:db8::1").value()),
                    {}, size, parallel);
    }
    case Kind::kNdnInterest:
      return finish(ndn::make_interest_header32(static_cast<std::uint32_t>(variant)), {},
                    size, parallel);
    case Kind::kNdnData:
      return finish(ndn::make_data_header32(static_cast<std::uint32_t>(variant)), {}, size,
                    parallel);
    case Kind::kOpt:
      return finish(opt::make_opt_header(session_, kOptPayload,
                                         static_cast<std::uint32_t>(variant)),
                    kOptPayload, size, parallel);
    case Kind::kNdnOptInterest:
    case Kind::kNdnOptData:
      return finish(opt::make_ndn_opt_header(static_cast<std::uint32_t>(variant),
                                             kind == Kind::kNdnOptInterest, session_,
                                             kOptPayload, 1000),
                    kOptPayload, size, parallel);
    case Kind::kXia: {
      const auto dag = xia::make_service_dag(ad(), hid(), fib::XidType::kSid, sid());
      return finish(xia::make_xia_header(dag), {}, size, parallel);
    }
  }
  return {};
}

}  // namespace perfbench
