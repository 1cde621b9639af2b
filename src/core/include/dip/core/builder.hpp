// Host-side DIP header construction (§2.3 "Host Constructions").
//
// "Before sending the data packets, the host needs to formulate appropriate
// FNs in the packet header considering both the required network services
// and the supported FNs."
//
// HeaderBuilder appends fields to the FN-locations block and FN triples that
// reference them; protocol composers (core/ip.hpp, ndn, opt, xia) are thin
// wrappers over it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dip/bytes/expected.hpp"
#include "dip/core/header.hpp"

namespace dip::core {

class HeaderBuilder {
 public:
  HeaderBuilder& next_header(NextHeader nh) {
    header_.basic.next_header = static_cast<std::uint8_t>(nh);
    return *this;
  }

  HeaderBuilder& hop_limit(std::uint8_t hops) {
    header_.basic.hop_limit = hops;
    return *this;
  }

  HeaderBuilder& parallel(bool flag) {
    header_.basic.parallel = flag;
    return *this;
  }

  /// Append `field` to the locations block; returns its bit offset.
  std::uint16_t add_location(std::span<const std::uint8_t> field) {
    const std::size_t at = header_.locations.size();
    // resize + copy rather than a range insert: GCC 12 inlines the latter's
    // empty-vector move into a false -Wstringop-overflow.
    header_.locations.resize(at + field.size());
    std::copy(field.begin(), field.end(), header_.locations.begin() + static_cast<std::ptrdiff_t>(at));
    return static_cast<std::uint16_t>(at * 8);
  }

  /// Append `n` zero bytes to the locations block; returns their bit offset.
  std::uint16_t add_zero_location(std::size_t n) {
    const auto offset = static_cast<std::uint16_t>(header_.locations.size() * 8);
    header_.locations.insert(header_.locations.end(), n, 0);
    return offset;
  }

  /// Add an FN referencing an existing location range.
  HeaderBuilder& add_fn(FnTriple fn) {
    header_.fns.push_back(fn);
    return *this;
  }

  /// Append `field` and a router-side FN covering exactly that field.
  HeaderBuilder& add_router_fn(OpKey key, std::span<const std::uint8_t> field) {
    const std::uint16_t loc = add_location(field);
    header_.fns.push_back(
        FnTriple::router(loc, static_cast<std::uint16_t>(field.size() * 8), key));
    return *this;
  }

  /// Validate (fn count, location bounds, 10-bit length) and return the header.
  [[nodiscard]] bytes::Result<DipHeader> build() const;

 private:
  DipHeader header_;
};

}  // namespace dip::core
