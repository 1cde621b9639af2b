// The Table-1 world: one router's tables (the size of the repository's
// bench environment) and the packet composers for all six Table-1
// compositions. Built identically for the production router and for the
// refmodel oracle, so their verdicts and rewritten bytes can be compared.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common.hpp"
#include "dip/core/registry.hpp"
#include "dip/core/router.hpp"
#include "dip/ctrl/journal.hpp"
#include "dip/opt/session.hpp"
#include "dip/refmodel/refmodel.hpp"

namespace perfbench {

/// Packet kinds of the mix (NDN and NDN+OPT each have an interest and a
/// data form).
enum class Kind : std::uint8_t {
  kDip32,
  kDip128,
  kNdnInterest,
  kNdnData,
  kOpt,
  kNdnOptInterest,
  kNdnOptData,
  kXia,
};

/// One production node holding the Table-1 world. Routes are installed
/// through a RouteJournal with the default JournalConfig, the same path the
/// mesh routers and the churn workload use.
struct Table1Node {
  std::shared_ptr<ctrl::ControlTables> tables;
  std::unique_ptr<ctrl::RouteJournal> journal;
  std::unique_ptr<core::Router> router;
};

class Table1World {
 public:
  Table1World();

  [[nodiscard]] Table1Node make_node(const core::OpRegistry* registry) const;
  [[nodiscard]] refmodel::RefNode make_ref() const;

  /// NDN name codes routed by this world share this top byte (/hotnets).
  [[nodiscard]] std::uint32_t name_top_byte() const noexcept { return name_top_; }

  /// Compose one packet of `kind` padded to `size` bytes. `variant` picks
  /// the destination (DIP-32/128), the name code (NDN), or the timestamp
  /// (OPT); `parallel` sets the §2.2 parallel bit.
  [[nodiscard]] std::vector<std::uint8_t> packet(Kind kind, std::uint64_t variant,
                                                 std::size_t size, bool parallel) const;

 private:
  crypto::Block node_secret_{};
  opt::Session session_;
  std::uint32_t name_top_ = 0;
};

}  // namespace perfbench
