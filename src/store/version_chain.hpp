// Per-key chain of versions, ordered freshest-first by the LWW (ut, sr) order.
//
// POCC reads only ever touch the head (the freshest version); Cure* reads
// search the chain for the freshest *stable* version, paying one hop per
// version skipped — the resource-efficiency difference §V-B measures.
//
// Each stored version is one exact-size heap record (VersionRecord): a 32 B
// header, then the dependency vector's num_dcs timestamps, then the value
// bytes, in a single allocation. A chain is an intrusive freshest-first list
// of such records behind one head pointer, so an update is one allocation
// and GC or a purge frees exactly the records it drops. Records are an
// in-process form only: store::Version stays the interchange type of the
// wire, the WAL and the checker.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <string_view>
#include <utility>

#include "common/assert.hpp"
#include "store/version.hpp"

namespace pocc::store {

/// One stored version, read-only to everyone but its chain. Accessors mirror
/// store::Version's fields; to_version() rebuilds the interchange form.
class VersionRecord {
 public:
  VersionRecord(const VersionRecord&) = delete;
  VersionRecord& operator=(const VersionRecord&) = delete;

  [[nodiscard]] Timestamp ut() const { return ut_; }
  [[nodiscard]] DcId sr() const { return sr_; }
  [[nodiscard]] KeyId key() const { return key_; }
  [[nodiscard]] bool opt_origin() const { return opt_origin_; }
  [[nodiscard]] std::uint32_t num_dcs() const { return num_dcs_; }
  [[nodiscard]] Timestamp dv_at(std::uint32_t i) const {
    POCC_ASSERT(i < num_dcs_);
    Timestamp t = 0;
    std::memcpy(&t, tail() + i * sizeof(Timestamp), sizeof(t));
    return t;
  }
  /// Dependency vector (a stack copy of the record's timestamps).
  [[nodiscard]] VersionVector dv() const;
  /// See Version::commit_vector().
  [[nodiscard]] VersionVector commit_vector() const {
    VersionVector cv = dv();
    cv.raise(sr_, ut_);
    return cv;
  }
  [[nodiscard]] std::string_view value() const {
    return {reinterpret_cast<const char*>(tail()) +
                num_dcs_ * sizeof(Timestamp),
            value_len_};
  }
  [[nodiscard]] Version to_version() const;

  /// LWW order (see Version::fresher_than).
  [[nodiscard]] bool fresher_than(Timestamp ut, DcId sr) const {
    if (ut_ != ut) return ut_ > ut;
    return sr_ < sr;
  }

  /// Bytes of the allocation holding this record.
  [[nodiscard]] std::size_t bytes() const {
    return bytes_for(num_dcs_, value_len_);
  }
  /// Bytes of the record a version with `num_dcs` entries and a value of
  /// `value_len` bytes is stored in.
  static constexpr std::size_t bytes_for(std::uint32_t num_dcs,
                                         std::size_t value_len) {
    return kHeaderBytes + num_dcs * sizeof(Timestamp) + value_len;
  }
  static constexpr std::size_t kHeaderBytes = 32;

 private:
  friend class VersionChain;

  VersionRecord() = default;
  /// Allocates and fills the record for `v`; freed only by destroy().
  static VersionRecord* make(const Version& v);
  static void destroy(VersionRecord* r);

  /// The bytes after the header: the timestamps (read and written with
  /// memcpy, never through a cast pointer), then the value.
  [[nodiscard]] const unsigned char* tail() const {
    return reinterpret_cast<const unsigned char*>(this) + kHeaderBytes;
  }
  [[nodiscard]] unsigned char* tail() {
    return reinterpret_cast<unsigned char*>(this) + kHeaderBytes;
  }

  VersionRecord* older_ = nullptr;  // next in the chain (freshest first)
  Timestamp ut_ = 0;
  KeyId key_ = 0;
  std::uint32_t value_len_ = 0;
  DcId sr_ = 0;
  bool opt_origin_ = false;
  std::uint8_t num_dcs_ = 0;
  // num_dcs_ timestamps, then value_len_ value bytes, follow the header.
};
static_assert(sizeof(VersionRecord) == VersionRecord::kHeaderBytes &&
                  alignof(VersionRecord) == alignof(Timestamp),
              "the record header grew: the per-key cost model is off");

/// Result of a visibility-filtered lookup.
struct ChainLookup {
  const VersionRecord* version = nullptr;  // chosen (nullptr: none visible)
  std::uint32_t hops = 0;        // versions inspected (CPU cost proxy)
  std::uint32_t fresher = 0;     // versions fresher than the chosen one
};

class VersionChain {
 public:
  /// Where insert() put a version. `bytes` is the new record's size, or 0
  /// when an equal (ut, sr) version was already stored.
  struct Inserted {
    std::size_t pos = 0;  // 0 == new head
    std::size_t bytes = 0;
  };
  /// What gc()/erase_if() freed.
  struct Removed {
    std::size_t versions = 0;
    std::size_t bytes = 0;
  };

  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = VersionRecord;
    using difference_type = std::ptrdiff_t;
    using pointer = const VersionRecord*;
    using reference = const VersionRecord&;

    Iterator() = default;
    explicit Iterator(const VersionRecord* r) : r_(r) {}
    reference operator*() const { return *r_; }
    pointer operator->() const { return r_; }
    Iterator& operator++() {
      r_ = r_->older_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(Iterator a, Iterator b) { return a.r_ == b.r_; }

   private:
    const VersionRecord* r_ = nullptr;
  };

  VersionChain() = default;
  /// Movable (the flat map relocates its entries), never copied: exactly
  /// one chain owns and frees each record.
  VersionChain(VersionChain&& o) noexcept
      : head_(std::exchange(o.head_, nullptr)) {}
  VersionChain& operator=(VersionChain&&) = delete;
  ~VersionChain() { (void)free_list(head_); }

  /// Insert a version, keeping freshest-first order. Duplicate (ut, sr) pairs
  /// are idempotently ignored (replication is at-least-once safe) and
  /// allocate nothing.
  Inserted insert(const Version& v);

  /// Freshest version, or nullptr when the chain is empty.
  [[nodiscard]] const VersionRecord* freshest() const { return head_; }

  /// Freshest version satisfying `visible`. Counts hops and fresher-but-
  /// invisible versions for the staleness statistics of §V-B.
  template <typename Pred>
  [[nodiscard]] ChainLookup freshest_where(Pred&& visible) const {
    ChainLookup r;
    for (const VersionRecord& v : *this) {
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
    for (const VersionRecord& v : *this) {
      if (!stable(v)) ++n;
    }
    return n;
  }

  /// Garbage collection (§IV-B): walk freshest-to-oldest and keep everything
  /// up to and including the first version satisfying `reachable_floor`
  /// (the oldest version that an active transaction could still read);
  /// free the records older than it.
  template <typename Pred>
  Removed gc(Pred&& reachable_floor) {
    for (VersionRecord* r = head_; r != nullptr; r = r->older_) {
      if (reachable_floor(std::as_const(*r))) {
        return free_list(std::exchange(r->older_, nullptr));
      }
    }
    return {};  // no version is at/below the floor yet: keep everything
  }

  /// Remove and free every version matching `pred`.
  template <typename Pred>
  Removed erase_if(Pred&& pred) {
    Removed out;
    VersionRecord** link = &head_;
    while (*link != nullptr) {
      VersionRecord* r = *link;
      if (pred(std::as_const(*r))) {
        *link = r->older_;
        ++out.versions;
        out.bytes += r->bytes();
        VersionRecord::destroy(r);
      } else {
        link = &r->older_;
      }
    }
    return out;
  }

  [[nodiscard]] Iterator begin() const { return Iterator(head_); }
  [[nodiscard]] Iterator end() const { return Iterator(); }

  /// Versions stored (walks the chain; most chains hold one or two).
  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(std::distance(begin(), end()));
  }
  [[nodiscard]] bool empty() const { return head_ == nullptr; }
  /// More than one version stored.
  [[nodiscard]] bool multi() const {
    return head_ != nullptr && head_->older_ != nullptr;
  }

 private:
  static Removed free_list(VersionRecord* r);

  VersionRecord* head_ = nullptr;  // freshest
};

}  // namespace pocc::store
