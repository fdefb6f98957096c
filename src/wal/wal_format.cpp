#include "wal/wal_format.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>

#include "common/assert.hpp"
#include "common/crc32.hpp"
#include "store/key_space.hpp"

namespace pocc::wal {

namespace {

constexpr char kSnapshotMagic[8] = {'P', 'O', 'C', 'C', 'S', 'N', 'P', '1'};
// Magic, body length, body CRC.
constexpr std::size_t kSnapshotHeaderBytes = kSnapshotCrcOffset + 4;

// Minimal little-endian writer/reader. The proto codec's equivalents are
// file-local to codec.cpp on purpose (different framing, different charging
// rules); the WAL needs no byte accounting.
void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

template <typename T>
void put_le(std::vector<std::uint8_t>& out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_bytes(std::vector<std::uint8_t>& out, const void* p, std::size_t n) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  out.insert(out.end(), b, b + n);
}

void put_vv(std::vector<std::uint8_t>& out, const VersionVector& vv) {
  put_u8(out, static_cast<std::uint8_t>(vv.size()));
  for (std::uint32_t i = 0; i < vv.size(); ++i) {
    put_le<std::uint64_t>(out, static_cast<std::uint64_t>(vv[i]));
  }
}

/// Version fields, shared between kVersion records and snapshot bodies. The
/// key travels as its original string: ids are per-process.
void put_version(std::vector<std::uint8_t>& out, KeyId key,
                 std::string_view value, DcId sr, Timestamp ut,
                 const VersionVector& dv, bool opt_origin) {
  const std::string_view name = store::KeySpace::global().name(key);
  POCC_ASSERT_MSG(name.size() <= std::numeric_limits<std::uint16_t>::max(),
                  "key longer than the WAL format's 64 KiB limit");
  put_le<std::uint16_t>(out, static_cast<std::uint16_t>(name.size()));
  put_bytes(out, name.data(), name.size());
  put_le<std::uint32_t>(out, static_cast<std::uint32_t>(value.size()));
  put_bytes(out, value.data(), value.size());
  put_le<std::uint32_t>(out, sr);
  put_le<std::uint64_t>(out, static_cast<std::uint64_t>(ut));
  put_vv(out, dv);
  put_u8(out, opt_origin ? 1 : 0);
}

/// A stored record streams the same bytes as the Version it was made from.
void put_version(std::vector<std::uint8_t>& out,
                 const store::VersionRecord& r) {
  put_version(out, r.key(), r.value(), r.sr(), r.ut(), r.dv(),
              r.opt_origin());
}

/// Bytes put_version(r) appends: the snapshot writer's sizing pass.
std::size_t version_size(const store::VersionRecord& r) {
  const std::size_t vv_bytes = 1 + std::size_t{r.num_dcs()} * 8;
  return 2 + store::KeySpace::global().name_size(r.key()) + 4 +
         r.value().size() + 4 + 8 + vv_bytes + 1;
}

std::size_t vv_size(const VersionVector& vv) {
  return 1 + static_cast<std::size_t>(vv.size()) * 8;
}

/// Little-endian field reader over either a whole in-memory input (record
/// payloads, CRC-checked up front by scan_records) or an input streamed
/// from a ChunkSource through a caller's buffer (snapshots, which track the
/// CRC-32 of the bytes taken since the last reset_crc()).
class Reader {
 public:
  Reader(const std::uint8_t* p, std::size_t n) : p_(p), end_(p + n) {}
  Reader(const ChunkSource& src, std::uint64_t len,
         std::vector<std::uint8_t>& buf)
      : src_(&src), buf_(&buf), unread_(len) {}

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::uint64_t remaining() const {
    return static_cast<std::uint64_t>(end_ - p_) + unread_;
  }
  void reset_crc() { crc_ = crc32_init(); }
  [[nodiscard]] std::uint32_t crc() const { return crc32_final(crc_); }

  bool take(void* dst, std::size_t n) {
    auto* d = static_cast<std::uint8_t*>(dst);
    while (ok_ && n > 0) {
      if (p_ == end_ && !refill()) return fail();
      const std::size_t k =
          std::min(n, static_cast<std::size_t>(end_ - p_));
      std::memcpy(d, p_, k);
      if (src_ != nullptr) crc_ = crc32_update(crc_, p_, k);
      d += k;
      p_ += k;
      n -= k;
    }
    return ok_;
  }

  std::uint8_t u8() { return get_le<std::uint8_t>(); }
  std::uint16_t u16() { return get_le<std::uint16_t>(); }
  std::uint32_t u32() { return get_le<std::uint32_t>(); }
  std::uint64_t u64() { return get_le<std::uint64_t>(); }

  VersionVector vv() {
    const std::uint8_t n = u8();
    if (!ok_) return {};
    if (n == 0 || n > kMaxDcs) {  // engines never log empty vectors
      ok_ = false;
      return {};
    }
    VersionVector v(n);
    for (std::uint8_t i = 0; i < n && ok_; ++i) {
      v.set(i, static_cast<Timestamp>(u64()));
    }
    return v;
  }

  /// put_version's fields. The key comes back as its string in `key` and
  /// out->key is left alone: interning is the caller's call, since a
  /// validation pass must not grow the key space.
  bool version(std::string* key, store::Version* out) {
    const std::uint16_t key_len = u16();
    if (!ok_ || remaining() < key_len) return fail();
    key->resize(key_len);
    if (!take(key->data(), key_len)) return false;
    const std::uint32_t value_len = u32();
    if (!ok_ || remaining() < value_len) return fail();
    out->value.resize(value_len);
    if (!take(out->value.data(), value_len)) return false;
    out->sr = u32();
    out->ut = static_cast<Timestamp>(u64());
    out->dv = vv();
    const std::uint8_t opt = u8();
    if (!ok_ || out->dv.size() == 0) return fail();
    out->opt_origin = opt != 0;
    return true;
  }

 private:
  bool fail() {
    ok_ = false;
    return false;
  }

  bool refill() {
    if (src_ == nullptr || unread_ == 0) return false;
    const auto want = static_cast<std::size_t>(
        std::min<std::uint64_t>(buf_->size(), unread_));
    const std::size_t got = (*src_)(buf_->data(), want);
    if (got == 0) return false;
    unread_ -= got;
    p_ = buf_->data();
    end_ = p_ + got;
    return true;
  }

  template <typename T>
  T get_le() {
    std::uint8_t b[sizeof(T)];
    if (!take(b, sizeof(T))) return T{};
    T v{};
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<std::uint64_t>(b[i]) << (8 * i)));
    }
    return v;
  }

  const std::uint8_t* p_ = nullptr;
  const std::uint8_t* end_ = nullptr;
  const ChunkSource* src_ = nullptr;    // streamed inputs only
  std::vector<std::uint8_t>* buf_ = nullptr;
  std::uint64_t unread_ = 0;            // streamed bytes not yet pulled
  std::uint32_t crc_ = crc32_init();
  bool ok_ = true;
};

/// Appends one framed record: reserves the 8-byte frame header, lets `fill`
/// append the payload in place, then patches length and CRC over it — no
/// temporary payload vector on the logging path.
template <typename Fill>
void append_framed(std::vector<std::uint8_t>& out, Fill&& fill) {
  const std::size_t start = out.size();
  out.resize(start + 8);
  fill();
  const std::size_t len = out.size() - start - 8;
  const std::uint32_t crc = crc32(out.data() + start + 8, len);
  for (std::size_t i = 0; i < 4; ++i) {
    out[start + i] = static_cast<std::uint8_t>(len >> (8 * i));
    out[start + 4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

/// Decode one payload (kind + fields). False on any malformation.
bool decode_payload(const std::uint8_t* data, std::size_t len, Record* out) {
  Reader r(data, len);
  const std::uint8_t kind = r.u8();
  if (!r.ok()) return false;
  switch (static_cast<RecordKind>(kind)) {
    case RecordKind::kVersion: {
      out->kind = RecordKind::kVersion;
      std::string key;
      if (!r.version(&key, &out->version)) return false;
      out->version.key = store::KeySpace::global().intern(key);
      break;
    }
    case RecordKind::kVv:
      out->kind = RecordKind::kVv;
      out->vv = r.vv();
      if (!r.ok() || out->vv.size() == 0) return false;
      break;
    default:
      return false;
  }
  return r.remaining() == 0;
}

/// Both replay passes over a streamed snapshot image: with `on_version`
/// null it only validates; otherwise it interns and delivers each version
/// as it is decoded. Returns the version count; the VV lands in `vv_out`.
std::optional<std::uint64_t> walk_snapshot(
    const ChunkSource& src, std::uint64_t image_len,
    const std::function<void(const store::Version&)>* on_version,
    VersionVector* vv_out) {
  std::vector<std::uint8_t> buf(kSnapshotChunkBytes);
  Reader r(src, image_len, buf);
  char magic[sizeof(kSnapshotMagic)];
  if (!r.take(magic, sizeof(magic)) ||
      std::memcmp(magic, kSnapshotMagic, sizeof(magic)) != 0) {
    return std::nullopt;
  }
  const std::uint32_t body_len = r.u32();
  const std::uint32_t stored_crc = r.u32();
  if (!r.ok() || body_len != r.remaining()) return std::nullopt;
  r.reset_crc();
  *vv_out = r.vv();
  if (!r.ok() || vv_out->size() == 0) return std::nullopt;
  const std::uint64_t count = r.u64();
  if (!r.ok()) return std::nullopt;
  // Each version costs >= ~30 bytes; an implausible count is corruption.
  if (count > r.remaining() / 30 + 1) return std::nullopt;
  std::string key;
  store::Version v;
  for (std::uint64_t i = 0; i < count; ++i) {
    if (!r.version(&key, &v)) return std::nullopt;
    if (on_version != nullptr) {
      v.key = store::KeySpace::global().intern(key);
      (*on_version)(v);
    }
  }
  if (r.remaining() != 0 || r.crc() != stored_crc) return std::nullopt;
  return count;
}

}  // namespace

void append_version_record(std::vector<std::uint8_t>& out,
                           const store::Version& v) {
  append_framed(out, [&] {
    put_u8(out, static_cast<std::uint8_t>(RecordKind::kVersion));
    put_version(out, v.key, v.value, v.sr, v.ut, v.dv, v.opt_origin);
  });
}

void append_vv_record(std::vector<std::uint8_t>& out,
                      const VersionVector& vv) {
  append_framed(out, [&] {
    put_u8(out, static_cast<std::uint8_t>(RecordKind::kVv));
    put_vv(out, vv);
  });
}

ScanResult scan_records(const std::uint8_t* data, std::size_t len,
                        const std::function<void(const Record&)>& fn) {
  ScanResult res;
  std::size_t off = 0;
  while (off + 8 <= len) {
    std::uint32_t payload_len = 0;
    std::uint32_t stored_crc = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      payload_len |= static_cast<std::uint32_t>(data[off + i]) << (8 * i);
      stored_crc |= static_cast<std::uint32_t>(data[off + 4 + i]) << (8 * i);
    }
    if (payload_len == 0 || payload_len > len - off - 8) break;  // torn
    const std::uint8_t* payload = data + off + 8;
    if (crc32(payload, payload_len) != stored_crc) break;  // corrupted
    Record rec;
    if (!decode_payload(payload, payload_len, &rec)) break;
    fn(rec);
    ++res.records;
    off += 8 + payload_len;
    res.valid_bytes = off;
  }
  res.torn = res.valid_bytes != len;
  return res;
}

std::optional<std::uint32_t> stream_snapshot(const store::PartitionStore& store,
                                             const VersionVector& vv,
                                             const ChunkSink& sink) {
  // Sizing pass: the header carries the body length before any body byte.
  std::uint64_t body_len = vv_size(vv) + 8;
  std::uint64_t count = 0;
  for (const auto& [key, chain] : store.chains()) {
    (void)key;
    for (const store::VersionRecord& v : chain) {
      body_len += version_size(v);
      ++count;
    }
  }
  if (body_len > std::numeric_limits<std::uint32_t>::max()) {
    return std::nullopt;
  }

  std::vector<std::uint8_t> chunk;
  chunk.reserve(kSnapshotChunkBytes);
  put_bytes(chunk, kSnapshotMagic, sizeof(kSnapshotMagic));
  put_le<std::uint32_t>(chunk, static_cast<std::uint32_t>(body_len));
  put_le<std::uint32_t>(chunk, 0);  // CRC placeholder, patched by the caller
  std::size_t body_from = kSnapshotHeaderBytes;  // first chunk: skip header
  std::uint32_t crc = crc32_init();
  std::uint64_t streamed = 0;
  const auto flush = [&] {
    crc = crc32_update(crc, chunk.data() + body_from,
                       chunk.size() - body_from);
    body_from = 0;
    streamed += chunk.size();
    const bool ok = sink(chunk.data(), chunk.size());
    chunk.clear();
    return ok;
  };

  put_vv(chunk, vv);
  put_le<std::uint64_t>(chunk, count);
  for (const auto& [key, chain] : store.chains()) {
    (void)key;
    for (const store::VersionRecord& v : chain) {
      // A version larger than a whole chunk grows it once; every other
      // version fits the reserved buffer.
      if (chunk.size() + version_size(v) > kSnapshotChunkBytes &&
          !chunk.empty() && !flush()) {
        return std::nullopt;
      }
      put_version(chunk, v);
    }
  }
  if (!chunk.empty() && !flush()) return std::nullopt;
  POCC_ASSERT_MSG(streamed == kSnapshotHeaderBytes + body_len,
                  "snapshot sizing pass disagrees with the streamed body");
  return crc32_final(crc);
}

bool validate_snapshot(const ChunkSource& src, std::uint64_t image_len) {
  VersionVector vv;
  return walk_snapshot(src, image_len, nullptr, &vv).has_value();
}

std::optional<std::uint64_t> apply_snapshot(
    const ChunkSource& src, std::uint64_t image_len,
    const std::function<void(const store::Version&)>& on_version,
    const std::function<void(const VersionVector&)>& on_vv) {
  VersionVector vv;
  const auto count = walk_snapshot(src, image_len, &on_version, &vv);
  if (count.has_value()) on_vv(vv);
  return count;
}

}  // namespace pocc::wal
