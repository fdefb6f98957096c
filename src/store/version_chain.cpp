#include "store/version_chain.hpp"

#include <cstring>
#include <limits>
#include <new>

namespace pocc::store {

VersionRecord* VersionRecord::make(const Version& v) {
  const std::uint32_t n = v.dv.size();
  POCC_ASSERT(n <= std::numeric_limits<std::uint8_t>::max());
  POCC_ASSERT(v.value.size() <= std::numeric_limits<std::uint32_t>::max());
  void* mem = ::operator new(bytes_for(n, v.value.size()));
  auto* r = new (mem) VersionRecord();
  r->ut_ = v.ut;
  r->key_ = v.key;
  r->value_len_ = static_cast<std::uint32_t>(v.value.size());
  r->sr_ = v.sr;
  r->opt_origin_ = v.opt_origin;
  r->num_dcs_ = static_cast<std::uint8_t>(n);
  unsigned char* out = r->tail();
  for (std::uint32_t i = 0; i < n; ++i) {
    const Timestamp t = v.dv[i];
    std::memcpy(out, &t, sizeof(t));
    out += sizeof(t);
  }
  if (!v.value.empty()) std::memcpy(out, v.value.data(), v.value.size());
  return r;
}

void VersionRecord::destroy(VersionRecord* r) {
  const std::size_t bytes = r->bytes();
  r->~VersionRecord();
  ::operator delete(static_cast<void*>(r), bytes);
}

VersionVector VersionRecord::dv() const {
  if (num_dcs_ == 0) return {};  // a Version whose dv was never sized
  VersionVector out(num_dcs_);
  for (std::uint32_t i = 0; i < num_dcs_; ++i) out.set(i, dv_at(i));
  return out;
}

Version VersionRecord::to_version() const {
  Version v;
  v.value.assign(value());
  v.ut = ut_;
  v.dv = dv();
  v.key = key_;
  v.sr = sr_;
  v.opt_origin = opt_origin_;
  return v;
}

VersionChain::Inserted VersionChain::insert(const Version& v) {
  // Common case: the new version is the freshest (updates replicate in
  // timestamp order), so scan from the head.
  Inserted out;
  VersionRecord** link = &head_;
  while (*link != nullptr && (*link)->fresher_than(v.ut, v.sr)) {
    link = &(*link)->older_;
    ++out.pos;
  }
  if (*link != nullptr && (*link)->ut_ == v.ut && (*link)->sr_ == v.sr) {
    return out;  // duplicate delivery: idempotent
  }
  VersionRecord* r = VersionRecord::make(v);
  r->older_ = *link;
  *link = r;
  out.bytes = r->bytes();
  return out;
}

VersionChain::Removed VersionChain::free_list(VersionRecord* r) {
  Removed out;
  while (r != nullptr) {
    VersionRecord* older = r->older_;
    ++out.versions;
    out.bytes += r->bytes();
    VersionRecord::destroy(r);
    r = older;
  }
  return out;
}

}  // namespace pocc::store
