#include "store/partition_store.hpp"

#include <utility>

namespace pocc::store {

std::size_t PartitionStore::insert(const Version& v) {
  std::unique_lock lk(mu_);
  VersionChain* chain = chains_.try_emplace(v.key).first;
  const bool was_empty = chain->empty();
  const bool was_single = !was_empty && !chain->multi();
  const VersionChain::Inserted r = chain->insert(v);
  if (r.bytes != 0) {  // not a duplicate
    ++versions_;
    bytes_ += r.bytes;
    // Exact 0 -> 1 and 1 -> 2 transitions: a key counts once, and enters
    // the multi-version set once.
    if (was_empty) ++keys_;
    if (was_single) multi_version_.push_back(v.key);
  }
  return r.pos;
}

const VersionChain* PartitionStore::find(KeyId key) const {
  return chains_.find(key);
}

void PartitionStore::rebuild_multi_version() {
  multi_version_.clear();
  for (const auto& [key, chain] : chains_.entries()) {
    if (chain.multi()) multi_version_.push_back(key);
  }
}

StoreStats PartitionStore::stats() const {
  std::shared_lock lk(mu_);
  StoreStats s;
  s.keys = keys_;
  s.versions = versions_;
  s.bytes = bytes_;
  s.gc_removed = gc_removed_;
  s.multi_version_keys = multi_version_.size();
  return s;
}

}  // namespace pocc::store
