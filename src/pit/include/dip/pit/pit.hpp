// Pending Interest Table (PIT) — the stateful half of NDN forwarding.
//
// F_PIT (Table 1, key 5): on an interest, record the arrival face under the
// content name; on data, consume the entry and return the recorded faces
// (match hit) or report a miss so the router can discard the packet (§3).
//
// Keys are 64-bit name codes (the data plane carries a 32-bit compressed
// name, § 4.1; 64 bits leaves headroom for wider name fields). Entries
// expire after an interest lifetime; expiry is amortized via a lazy min-heap
// whose stale items (consumed or refreshed entries) are bounded: the heap
// is cleared when the table empties and compacted in O(n) once it holds
// more than 4 x size() + 4096 items.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "dip/bytes/time.hpp"

namespace dip::pit {

/// Ingress/egress face identifier (matches fib::NextHop width).
using FaceId = std::uint32_t;

/// Result of recording an interest.
enum class InterestResult : std::uint8_t {
  kCreated,     ///< new PIT entry; forward the interest upstream
  kAggregated,  ///< entry existed; interest suppressed (face recorded)
  kDuplicate,   ///< same face already pending; possible loop — drop
};

class Pit {
 public:
  struct Config {
    SimDuration entry_lifetime = 4 * kSecond;  ///< NDN default interest lifetime
    std::size_t max_entries = 1 << 20;         ///< state-exhaustion guard (§2.4)
  };

  Pit() : Pit(Config{}) {}
  explicit Pit(const Config& config) : config_(config) {}

  /// Record an interest for `name_code` arriving on `face` at `now`.
  /// Returns kCreated/kAggregated/kDuplicate, or nullopt if the table is
  /// full (caller should drop — the §2.4 hard state limit).
  std::optional<InterestResult> record_interest(std::uint64_t name_code, FaceId face,
                                                SimTime now);

  /// Consume the entry for arriving data. Returns the faces to forward the
  /// data to, or an empty vector on PIT miss (router discards the packet).
  std::vector<FaceId> match_data(std::uint64_t name_code, SimTime now);

  /// True iff an unexpired entry exists (non-consuming).
  [[nodiscard]] bool has_entry(std::uint64_t name_code, SimTime now) const;

  /// Drop all entries that expired at or before `now`; returns how many.
  std::size_t expire(SimTime now);

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  /// Expiry-heap items, stale ones included; never above heap_bound().
  [[nodiscard]] std::size_t heap_size() const noexcept { return expiry_heap_.size(); }
  [[nodiscard]] std::size_t heap_bound() const noexcept {
    return 4 * entries_.size() + kHeapSlack;
  }

 private:
  struct Entry {
    std::vector<FaceId> in_faces;
    SimTime expiry = 0;
  };

  struct HeapItem {
    SimTime expiry;
    std::uint64_t name_code;
    friend bool operator>(const HeapItem& a, const HeapItem& b) noexcept {
      return a.expiry > b.expiry;
    }
  };

  static constexpr std::size_t kHeapSlack = 4096;

  void push_expiry(SimTime expiry, std::uint64_t name_code);
  /// Keep the heap within heap_bound(): empty it with the table, compact it
  /// (drop stale items) once it grows past the bound.
  void bound_heap();

  Config config_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  /// Min-heap by expiry (std::push_heap/pop_heap with std::greater<>).
  std::vector<HeapItem> expiry_heap_;
};

}  // namespace dip::pit
