// Item version record (paper §IV-A): d = <k, v, sr, ut, dv>.
#pragma once

#include <string>

#include "common/types.hpp"
#include "vclock/version_vector.hpp"

namespace pocc::store {

/// One version of a data item: the interchange form that the wire codec, the
/// WAL and the checker carry. The key travels as an interned KeyId (see
/// key_space.hpp) — wire-size accounting still charges the original key
/// bytes, so the protocol's metadata model is unchanged. A PartitionStore
/// does not keep these: it packs each stored version into one exact-size
/// VersionRecord (see version_chain.hpp).
struct Version {
  std::string value;  // v: item value
  Timestamp ut = 0;   // update time: physical timestamp at creation
  VersionVector dv;   // dependency vector: potential deps, one entry per DC
  KeyId key = 0;      // k: item key (interned)
  DcId sr = 0;        // source replica: DC where the PUT was executed
  /// HA-POCC (§IV-C): true if created by a client operating optimistically.
  /// Pessimistic sessions may only see such local items once they are stable.
  bool opt_origin = false;

  /// Last-writer-wins total order (§IV-B): higher update time wins; ties are
  /// broken by source replica id, *lowest* wins.
  [[nodiscard]] bool fresher_than(const Version& other) const {
    if (ut != other.ut) return ut > other.ut;
    return sr < other.sr;
  }

  /// Effective commit vector: dv with the source-replica entry raised to the
  /// version's own update time. `cv(d) <= GSS` is Cure's stability test —
  /// all dependencies received *and* the version itself within the stable cut.
  [[nodiscard]] VersionVector commit_vector() const {
    VersionVector cv = dv;
    cv.raise(sr, ut);
    return cv;
  }
};

/// The implicit initial version of an unwritten key: empty value, zero
/// timestamp, no dependencies. Keys are logically pre-loaded with this (the
/// paper pre-populates 1M keys per partition; representing them implicitly
/// keeps memory bounded at simulation scale).
inline Version initial_version(KeyId key, std::uint32_t num_dcs) {
  Version v;
  v.key = key;
  v.sr = 0;
  v.ut = 0;
  v.dv = VersionVector(num_dcs);
  return v;
}

}  // namespace pocc::store
