// Multi-version key-value storage for one partition (paper §II-C: "We assume
// a multiversion data store... The system periodically garbage-collects old
// versions of items.").
//
// Keys that were never written are logically present with an implicit initial
// version (empty value, zero timestamp) so the paper's pre-loaded 1M-key
// dataset does not need to be materialized.
//
// Chains are keyed by interned KeyId in an open-addressing flat map (see
// flat_key_map.hpp): a lookup costs one u32 mix and a short linear probe,
// instead of hashing and comparing a heap-allocated string. A map entry is
// the KeyId plus the chain's head pointer (16 B); each version lives in one
// exact-size record (see version_chain.hpp), so a one-version key costs
// 16 B + 32 B + 8 B per DC + its value bytes.
//
// Concurrency (one-writer / concurrent-reader): each partition is owned by
// exactly one worker thread (rt::NodeGroup pins partitions to workers), and
// only the owner ever mutates the store. Mutators (insert/gc/purge_if) take
// the per-shard writer lock; foreign threads read through the shared-locked
// read_chain()/read_chains()/stats() APIs. The owner's plain reads
// (find()/chains()/multi_version_keys()) stay lock-free: the owner is the
// only writer, so its unlocked reads can never race a mutation. There is no
// global lock anywhere — contention is per shard, and in steady state the
// writer lock is uncontended. The single-threaded simulator pays the
// uncontended lock on mutators too; measured on perf_smoke this is inside
// run-to-run noise (~0-2% of wall), so one store serves every host rather
// than templating the lock away.
#pragma once

#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "store/flat_key_map.hpp"
#include "store/version_chain.hpp"

namespace pocc::store {

/// Aggregate storage statistics (feeds the staleness/occupancy metrics).
struct StoreStats {
  std::uint64_t keys = 0;            // keys with at least one explicit version
  std::uint64_t versions = 0;        // total explicit versions
  std::uint64_t bytes = 0;           // bytes of the live version records
  std::uint64_t gc_removed = 0;      // versions removed by GC so far
  std::uint64_t multi_version_keys = 0;
};

class PartitionStore {
 public:
  // ----- owner-thread API (the one writer) -----

  /// Insert a version into its key's chain (one record allocation; none for
  /// a duplicate). Returns the insert position (0 == the new version is the
  /// key's freshest).
  std::size_t insert(const Version& v);

  /// Chain for `key`, or nullptr if the key has never been written.
  /// Owner-thread only: unlocked (the owner is the sole writer); foreign
  /// threads must use read_chain().
  [[nodiscard]] const VersionChain* find(KeyId key) const;

  /// GC pass over keys with more than one version: for each chain, retain the
  /// newest version whose `reachable_floor` holds plus everything fresher
  /// (see VersionChain::gc). Returns versions removed.
  ///
  /// `reachable_floor` takes a `const VersionRecord&`. A predicate written
  /// against the interchange type (`const Version&`, as an offline replay of
  /// Version streams may be) is still accepted: each visited record is then
  /// rebuilt into a Version first, which allocates. The engines never take
  /// that path.
  template <typename Pred>
  std::uint64_t gc(Pred&& reachable_floor) {
    if constexpr (!std::is_invocable_r_v<bool, Pred&, const VersionRecord&>) {
      return gc([&](const VersionRecord& r) {
        return reachable_floor(r.to_version());
      });
    } else {
      std::unique_lock lk(mu_);
      std::uint64_t total_removed = 0;
      for (std::size_t i = 0; i < multi_version_.size();) {
        VersionChain* chain = chains_.find(multi_version_[i]);
        POCC_ASSERT(chain != nullptr);
        const VersionChain::Removed r = chain->gc(reachable_floor);
        total_removed += r.versions;
        bytes_ -= r.bytes;
        if (!chain->multi()) {
          multi_version_[i] = multi_version_.back();
          multi_version_.pop_back();
        } else {
          ++i;
        }
      }
      gc_removed_ += total_removed;
      versions_ -= total_removed;
      return total_removed;
    }
  }

  /// Remove every version matching `pred` (a `const VersionRecord&`
  /// predicate) from every chain (HA-POCC's lost-update discard, §III-B).
  /// Returns versions removed.
  template <typename Pred>
  std::uint64_t purge_if(Pred&& pred) {
    std::unique_lock lk(mu_);
    std::uint64_t removed = 0;
    for (auto& [key, chain] : chains_.entries()) {
      if (chain.empty()) continue;
      const VersionChain::Removed r = chain.erase_if(pred);
      removed += r.versions;
      bytes_ -= r.bytes;
      if (chain.empty()) --keys_;  // the map keeps the entry; it counts no more
    }
    rebuild_multi_version();
    versions_ -= removed;
    return removed;
  }

  /// All chains, densely packed (checker/convergence inspection).
  /// Owner-thread (or post-shutdown) only.
  [[nodiscard]] const std::vector<std::pair<KeyId, VersionChain>>& chains()
      const {
    return chains_.entries();
  }

  /// Keys with >1 version (staleness denominator; unordered). Owner-thread
  /// only.
  [[nodiscard]] const std::vector<KeyId>& multi_version_keys() const {
    return multi_version_;
  }

  // ----- foreign-reader API (any thread, concurrent with the writer) -----

  /// Read `key`'s chain under the shared lock: `fn(const VersionChain*)` is
  /// invoked with nullptr when the key was never written. The pointer is
  /// valid only inside `fn` — a concurrent insert may grow the map after.
  template <typename Fn>
  void read_chain(KeyId key, Fn&& fn) const {
    std::shared_lock lk(mu_);
    fn(static_cast<const VersionChain*>(chains_.find(key)));
  }

  /// Visit every chain under the shared lock (live convergence probes).
  template <typename Fn>
  void read_chains(Fn&& fn) const {
    std::shared_lock lk(mu_);
    fn(chains_.entries());
  }

  /// Safe from any thread (shared-locked against the writer).
  [[nodiscard]] StoreStats stats() const;

 private:
  void rebuild_multi_version();

  // Writer lock: exclusive on mutation, shared for foreign readers, not
  // taken by owner reads (single-writer invariant, see file header).
  mutable std::shared_mutex mu_;
  FlatKeyMap<VersionChain> chains_;
  static_assert(sizeof(FlatKeyMap<VersionChain>::Entry) == 16,
                "a map entry is a KeyId and the chain's head pointer");
  std::vector<KeyId> multi_version_;
  std::uint64_t keys_ = 0;
  std::uint64_t versions_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t gc_removed_ = 0;
};

}  // namespace pocc::store
