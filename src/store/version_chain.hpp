// Per-key chain of versions, ordered freshest-first by the LWW (ut, sr) order.
//
// POCC reads only ever touch the head (the freshest version); Cure* reads
// search the chain for the freshest *stable* version, paying one hop per
// version skipped — the resource-efficiency difference §V-B measures.
//
// A chain holds exactly the versions it stores: GC and purges give back the
// slots they empty. Most keys sit at one version between updates, so a
// vector left at its growth capacity would carry a dead slot per key.
#pragma once

#include <cstdint>
#include <vector>

#include "store/version.hpp"

namespace pocc::store {

/// Result of a visibility-filtered lookup.
struct ChainLookup {
  const Version* version = nullptr;  // chosen version (nullptr: none visible)
  std::uint32_t hops = 0;            // versions inspected (CPU cost proxy)
  std::uint32_t fresher = 0;         // versions fresher than the chosen one
};

class VersionChain {
 public:
  /// Insert a version, keeping freshest-first order. Duplicate (ut, sr) pairs
  /// are idempotently ignored (replication is at-least-once safe).
  /// Returns the insert position (0 == new head).
  std::size_t insert(Version v);

  /// Freshest version, or nullptr when the chain is empty.
  [[nodiscard]] const Version* freshest() const {
    return versions_.empty() ? nullptr : &versions_.front();
  }

  /// Freshest version satisfying `visible`. Counts hops and fresher-but-
  /// invisible versions for the staleness statistics of §V-B.
  template <typename Pred>
  [[nodiscard]] ChainLookup freshest_where(Pred&& visible) const {
    ChainLookup r;
    for (const Version& v : versions_) {
      ++r.hops;
      if (visible(v)) {
        r.version = &v;
        return r;
      }
      ++r.fresher;
    }
    return r;
  }

  /// Number of versions NOT satisfying `stable` (the "unmerged" count of
  /// §V-B's staleness definition).
  template <typename Pred>
  [[nodiscard]] std::uint32_t count_unstable(Pred&& stable) const {
    std::uint32_t n = 0;
    for (const Version& v : versions_) {
      if (!stable(v)) ++n;
    }
    return n;
  }

  /// Garbage collection (§IV-B): walk freshest-to-oldest and keep everything
  /// up to and including the first version satisfying `reachable_floor`
  /// (the oldest version that an active transaction could still read);
  /// drop the rest, and the slots that held them. Returns the number of
  /// versions removed.
  template <typename Pred>
  std::size_t gc(Pred&& reachable_floor) {
    for (std::size_t i = 0; i < versions_.size(); ++i) {
      if (reachable_floor(versions_[i])) {
        const std::size_t removed = versions_.size() - (i + 1);
        if (removed != 0) {
          versions_.resize(i + 1);
          versions_.shrink_to_fit();
        }
        return removed;
      }
    }
    return 0;  // no version is at/below the floor yet: keep everything
  }

  /// Remove all versions matching `pred`, and the slots that held them.
  /// Returns the number removed.
  template <typename Pred>
  std::size_t erase_if(Pred&& pred) {
    const std::size_t removed = std::erase_if(versions_, pred);
    if (removed != 0) versions_.shrink_to_fit();
    return removed;
  }

  [[nodiscard]] std::size_t size() const { return versions_.size(); }
  [[nodiscard]] bool empty() const { return versions_.empty(); }
  [[nodiscard]] const std::vector<Version>& versions() const {
    return versions_;
  }

 private:
  std::vector<Version> versions_;  // freshest first
};

}  // namespace pocc::store
