#include "store/key_space.hpp"

#include <charconv>

#include "common/assert.hpp"
#include "common/hash.hpp"

namespace pocc::store {

KeySpace::KeySpace() {
  // Id 0 is always the empty key, so default-constructed messages and
  // versions (key = 0) are valid and charge zero key bytes on the wire.
  intern(std::string_view{});
}

KeySpace::~KeySpace() {
  for (auto& seg : segments_) delete[] seg.load(std::memory_order_relaxed);
}

std::size_t KeySpace::capacity() const {
  std::size_t total = 0;
  for (std::size_t c = 0; c < kSegments; ++c) {
    if (segments_[c].load(std::memory_order_acquire) == nullptr) break;
    total += kFirstSegment << c;
  }
  return total;
}

const KeySpace::Entry& KeySpace::entry(KeyId id) const {
  POCC_ASSERT_MSG(id < count_.load(std::memory_order_acquire),
                  "KeyId was never interned");
  const Slot s = slot_of(id);
  return segments_[s.segment].load(std::memory_order_acquire)[s.offset];
}

const KeySpace::Entry& KeySpace::entry_locked(std::size_t id) const {
  const Slot s = slot_of(id);
  return segments_[s.segment].load(std::memory_order_relaxed)[s.offset];
}

void KeySpace::rehash_locked(std::size_t buckets) {
  table_.assign(buckets, 0);
  mask_ = buckets - 1;
  const std::size_t n = count_.load(std::memory_order_relaxed);
  for (std::size_t id = 0; id < n; ++id) {
    std::size_t i = entry_locked(id).hash & mask_;
    while (table_[i] != 0) i = (i + 1) & mask_;
    table_[i] = static_cast<std::uint32_t>(id) + 1;
  }
}

KeyId KeySpace::insert_locked(std::string_view key, std::uint64_t h) {
  const std::size_t n = count_.load(std::memory_order_relaxed);
  // Grow at ~70% load (or on first use).
  if (table_.empty() || (n + 1) * 10 >= table_.size() * 7) {
    rehash_locked(table_.empty() ? 1024 : table_.size() * 2);
  }
  std::size_t i = h & mask_;
  while (table_[i] != 0) {
    const KeyId id = table_[i] - 1;
    const Entry& e = entry_locked(id);
    if (e.hash == h && e.key == key) return id;  // idempotent intern
    i = (i + 1) & mask_;
  }
  POCC_ASSERT_MSG(n < kMaxKeys, "key space exhausted: table_ holds id + 1 "
                                "in a u32");
  const Slot s = slot_of(n);
  Entry* seg = segments_[s.segment].load(std::memory_order_relaxed);
  if (seg == nullptr) {
    seg = new Entry[kFirstSegment << s.segment];
    segments_[s.segment].store(seg, std::memory_order_release);
  }
  Entry& e = seg[s.offset];
  e.key.assign(key.data(), key.size());
  e.hash = h;
  std::uint32_t prefix = 0;
  e.prefix_part =
      parse_partition_prefix(key, &prefix) ? prefix : kNoPrefix;
  table_[i] = static_cast<std::uint32_t>(n) + 1;
  count_.store(n + 1, std::memory_order_release);
  return static_cast<KeyId>(n);
}

KeyId KeySpace::intern(std::string_view key) {
  const std::uint64_t h = fnv1a(key);
  std::lock_guard lk(mu_);
  return insert_locked(key, h);
}

KeyId KeySpace::intern_partition_key(PartitionId part, std::uint64_t rank) {
  // to_chars, not snprintf: this runs once per generated workload operation.
  char buf[48];
  auto [colon, ec1] = std::to_chars(buf, buf + sizeof(buf), part);
  POCC_ASSERT(ec1 == std::errc{});
  *colon = ':';
  auto [end, ec2] = std::to_chars(colon + 1, buf + sizeof(buf), rank);
  POCC_ASSERT(ec2 == std::errc{});
  return intern(std::string_view(buf, static_cast<std::size_t>(end - buf)));
}

KeyId KeySpace::find(std::string_view key) const {
  const std::uint64_t h = fnv1a(key);
  std::lock_guard lk(mu_);
  if (table_.empty()) return kInvalidKeyId;
  std::size_t i = h & mask_;
  while (table_[i] != 0) {
    const KeyId id = table_[i] - 1;
    const Entry& e = entry_locked(id);
    if (e.hash == h && e.key == key) return id;
    i = (i + 1) & mask_;
  }
  return kInvalidKeyId;
}

KeySpace& KeySpace::global() {
  static KeySpace instance;
  return instance;
}

}  // namespace pocc::store
