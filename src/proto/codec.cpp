#include "proto/codec.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <type_traits>
#include <utility>

#include "common/assert.hpp"
#include "store/key_space.hpp"

namespace pocc::proto {

namespace {

// The 0..18 wire ids must track the Message variant order: SimNetwork's
// accounting and SimNode's priority classing switch on index(), and the codec
// reuses it as the on-the-wire type tag.
template <WireType W, typename T>
constexpr bool kMatches =
    std::is_same_v<std::variant_alternative_t<static_cast<std::size_t>(W),
                                              Message>,
                   T>;
static_assert(kMatches<WireType::kGetReq, GetReq> &&
                  kMatches<WireType::kPutReq, PutReq> &&
                  kMatches<WireType::kRoTxReq, RoTxReq> &&
                  kMatches<WireType::kGetReply, GetReply> &&
                  kMatches<WireType::kPutReply, PutReply> &&
                  kMatches<WireType::kRoTxReply, RoTxReply> &&
                  kMatches<WireType::kSessionClosed, SessionClosed> &&
                  kMatches<WireType::kReplicate, Replicate> &&
                  kMatches<WireType::kHeartbeat, Heartbeat> &&
                  kMatches<WireType::kSliceReq, SliceReq> &&
                  kMatches<WireType::kSliceReply, SliceReply> &&
                  kMatches<WireType::kGcReport, GcReport> &&
                  kMatches<WireType::kGcVector, GcVector> &&
                  kMatches<WireType::kStabReport, StabReport> &&
                  kMatches<WireType::kGssBroadcast, GssBroadcast> &&
                  kMatches<WireType::kRecoveryReq, RecoveryReq> &&
                  kMatches<WireType::kRecoveryVersion, RecoveryVersion> &&
                  kMatches<WireType::kRecoveryDone, RecoveryDone> &&
                  kMatches<WireType::kOverloaded, Overloaded>,
              "wire ids must match the Message variant order");

/// Whether a write counts toward wire_size() (protocol metadata) or is
/// transport framing / measurement-only (see messages.hpp charging rule).
enum class Charge : bool { kNo = false, kYes = true };

/// Least bytes one batch item can take: varint from.part + varint to.part +
/// varint sub-length + a (version + type) sub-body. Only bounds the item
/// count the decoder will believe; the encoder counts what it writes.
constexpr std::size_t kMinBatchItemBytes = 1 + 1 + 1 + 2;

/// Most uncharged bytes a single-item message carries: op_id and
/// blocked_us (10 each at worst) plus a ReadItem's two counters (5 each).
constexpr std::size_t kUnchargedSlackBytes = 10 + 10 + 5 + 5;

/// Bytes of the minimal LEB128 encoding of `v` (1..10).
constexpr std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Write the minimal LEB128 form of `v` at `p`; returns the bytes written.
std::size_t put_varint(std::uint8_t* p, std::uint64_t v) {
  std::size_t n = 0;
  while (v >= 0x80) {
    p[n++] = static_cast<std::uint8_t>(v | 0x80);
    v >>= 7;
  }
  p[n++] = static_cast<std::uint8_t>(v);
  return n;
}

enum class VarintRead { kOk, kTruncated, kMalformed };

/// Read a minimal-form LEB128 value of at most `max_bytes` from
/// [p, p+len). kMalformed: a continuation bit on byte `max_bytes`, a value
/// past 64 bits, or a non-minimal encoding (a zero final byte after the
/// first).
VarintRead get_varint(const std::uint8_t* p, std::size_t len,
                      std::size_t max_bytes, std::uint64_t* v,
                      std::size_t* n) {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < max_bytes; ++i) {
    if (i == len) return VarintRead::kTruncated;
    const std::uint8_t b = p[i];
    if (i == 9 && b > 1) return VarintRead::kMalformed;  // beyond 64 bits
    acc |= static_cast<std::uint64_t>(b & 0x7f) << (7 * i);
    if ((b & 0x80) == 0) {
      if (b == 0 && i > 0) return VarintRead::kMalformed;
      *v = acc;
      *n = i + 1;
      return VarintRead::kOk;
    }
  }
  return VarintRead::kMalformed;
}

/// Fill the one-byte varint slot at `at` with `v`, widening it in place
/// (shifting everything after it) when `v` needs more than one byte.
void fill_varint_slot(std::vector<std::uint8_t>& buf, std::size_t at,
                      std::uint64_t v) {
  const std::size_t n = varint_size(v);
  if (n > 1) {
    buf.insert(buf.begin() + static_cast<std::ptrdiff_t>(at + 1), n - 1, 0);
  }
  put_varint(buf.data() + at, v);
}

/// Append the length prefix of a frame whose body is `body` bytes long.
void put_frame_prefix(std::vector<std::uint8_t>& out, std::size_t body) {
  std::uint8_t buf[kMaxFramePrefixBytes];
  out.insert(out.end(), buf, buf + put_varint(buf, body));
}

class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v, Charge c) { raw(&v, 1, c); }
  void u16(std::uint16_t v, Charge c) { put_le(v, c); }
  void u32(std::uint32_t v, Charge c) { put_le(v, c); }
  void u64(std::uint64_t v, Charge c) { put_le(v, c); }
  void i64(std::int64_t v, Charge c) {
    put_le(static_cast<std::uint64_t>(v), c);
  }
  void varint(std::uint64_t v, Charge c) {
    std::uint8_t buf[10];
    raw(buf, put_varint(buf, v), c);
  }
  /// Signed varint: 0, -1, 1, -2, ... map to 0, 1, 2, 3, ...
  void zigzag(std::int64_t v, Charge c) {
    varint((static_cast<std::uint64_t>(v) << 1) ^
               static_cast<std::uint64_t>(v >> 63),
           c);
  }
  void raw(const void* p, std::size_t n, Charge c) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    out_.insert(out_.end(), b, b + n);
    if (c == Charge::kYes) charged_ += n;
  }

  [[nodiscard]] std::size_t charged() const { return charged_; }

 private:
  template <typename T>
  void put_le(T v, Charge c) {
    std::uint8_t buf[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    raw(buf, sizeof(T), c);
  }

  std::vector<std::uint8_t>& out_;
  std::size_t charged_ = 0;
};

void put_header(Writer& w, WireType type) {
  w.u8(kWireVersion, Charge::kYes);
  w.u8(static_cast<std::uint8_t>(type), Charge::kYes);
}

void put_vv(Writer& w, const VersionVector& vv) {
  w.u8(static_cast<std::uint8_t>(vv.size()), Charge::kYes);
  for (std::uint32_t i = 0; i < vv.size(); ++i) w.i64(vv[i], Charge::kYes);
}

/// Keys cross process boundaries as their original strings (KeyIds are
/// per-process); charged at original length + 2-byte marker.
void put_key(Writer& w, KeyId key) {
  const std::string_view name = store::KeySpace::global().name(key);
  POCC_ASSERT_MSG(name.size() <= std::numeric_limits<std::uint16_t>::max(),
                  "key longer than the wire format's 64 KiB limit");
  w.u16(static_cast<std::uint16_t>(name.size()), Charge::kYes);
  w.raw(name.data(), name.size(), Charge::kYes);
}

void put_string(Writer& w, const std::string& s, Charge c) {
  w.u32(static_cast<std::uint32_t>(s.size()), c);
  w.raw(s.data(), s.size(), c);
}

void put_node(Writer& w, NodeId n) {
  w.u32(n.dc, Charge::kYes);
  w.u32(n.part, Charge::kYes);
}

void put_key_list(Writer& w, const std::vector<KeyId>& keys) {
  w.u32(static_cast<std::uint32_t>(keys.size()), Charge::kYes);
  for (const KeyId k : keys) put_key(w, k);
}

void put_item(Writer& w, const ReadItem& it) {
  put_key(w, it.key);
  w.u8(it.found ? 1 : 0, Charge::kYes);
  put_string(w, it.value, Charge::kYes);
  w.u32(it.sr, Charge::kYes);
  w.i64(it.ut, Charge::kYes);
  put_vv(w, it.dv);
  // Measurement-only fields ride along uncharged so decode round-trips
  // exactly (the checker and tests compare full structs).
  w.varint(it.fresher_versions, Charge::kNo);
  w.varint(it.unmerged_versions, Charge::kNo);
}

void put_item_list(Writer& w, const std::vector<ReadItem>& items) {
  w.u32(static_cast<std::uint32_t>(items.size()), Charge::kYes);
  for (const ReadItem& it : items) put_item(w, it);
}

struct EncodeVisitor {
  Writer& w;

  void operator()(const GetReq& m) const {
    put_header(w, WireType::kGetReq);
    w.u64(m.client, Charge::kYes);
    put_key(w, m.key);
    put_vv(w, m.rdv);
    w.u8(m.pessimistic ? 1 : 0, Charge::kYes);
    w.varint(m.op_id, Charge::kNo);
  }
  void operator()(const PutReq& m) const {
    put_header(w, WireType::kPutReq);
    w.u64(m.client, Charge::kYes);
    put_key(w, m.key);
    put_string(w, m.value, Charge::kYes);
    put_vv(w, m.dv);
    w.u8(m.pessimistic ? 1 : 0, Charge::kYes);
    w.varint(m.op_id, Charge::kNo);
  }
  void operator()(const RoTxReq& m) const {
    put_header(w, WireType::kRoTxReq);
    w.u64(m.client, Charge::kYes);
    put_key_list(w, m.keys);
    put_vv(w, m.rdv);
    w.u8(m.pessimistic ? 1 : 0, Charge::kYes);
    w.varint(m.op_id, Charge::kNo);
  }
  void operator()(const GetReply& m) const {
    put_header(w, WireType::kGetReply);
    w.u64(m.client, Charge::kYes);
    put_item(w, m.item);
    w.zigzag(m.blocked_us, Charge::kNo);
    w.varint(m.op_id, Charge::kNo);
  }
  void operator()(const PutReply& m) const {
    put_header(w, WireType::kPutReply);
    w.u64(m.client, Charge::kYes);
    put_key(w, m.key);
    w.i64(m.ut, Charge::kYes);
    w.u32(m.sr, Charge::kYes);
    w.zigzag(m.blocked_us, Charge::kNo);
    w.varint(m.op_id, Charge::kNo);
  }
  void operator()(const RoTxReply& m) const {
    put_header(w, WireType::kRoTxReply);
    w.u64(m.client, Charge::kYes);
    put_item_list(w, m.items);
    put_vv(w, m.tv);
    w.zigzag(m.blocked_us, Charge::kNo);
    w.varint(m.op_id, Charge::kNo);
  }
  void operator()(const SessionClosed& m) const {
    put_header(w, WireType::kSessionClosed);
    w.u64(m.client, Charge::kYes);
    put_string(w, m.reason, Charge::kYes);
  }
  void operator()(const Replicate& m) const {
    put_header(w, WireType::kReplicate);
    put_key(w, m.version.key);
    put_string(w, m.version.value, Charge::kYes);
    w.u32(m.version.sr, Charge::kYes);
    w.i64(m.version.ut, Charge::kYes);
    put_vv(w, m.version.dv);
    w.u8(m.version.opt_origin ? 1 : 0, Charge::kYes);
  }
  void operator()(const Heartbeat& m) const {
    put_header(w, WireType::kHeartbeat);
    w.u32(m.src_dc, Charge::kYes);
    w.i64(m.ts, Charge::kYes);
  }
  void operator()(const SliceReq& m) const {
    put_header(w, WireType::kSliceReq);
    w.u64(m.tx_id, Charge::kYes);
    put_node(w, m.coordinator);
    put_key_list(w, m.keys);
    put_vv(w, m.tv);
    w.u8(m.pessimistic ? 1 : 0, Charge::kYes);
  }
  void operator()(const SliceReply& m) const {
    put_header(w, WireType::kSliceReply);
    w.u64(m.tx_id, Charge::kYes);
    put_item_list(w, m.items);
    w.u8(m.aborted ? 1 : 0, Charge::kYes);
    w.zigzag(m.blocked_us, Charge::kNo);
  }
  void operator()(const GcReport& m) const {
    put_header(w, WireType::kGcReport);
    put_node(w, m.from);
    put_vv(w, m.low_watermark);
  }
  void operator()(const GcVector& m) const {
    put_header(w, WireType::kGcVector);
    put_vv(w, m.gv);
  }
  void operator()(const StabReport& m) const {
    put_header(w, WireType::kStabReport);
    put_node(w, m.from);
    put_vv(w, m.vv);
  }
  void operator()(const GssBroadcast& m) const {
    put_header(w, WireType::kGssBroadcast);
    put_vv(w, m.gss);
  }
  void operator()(const RecoveryReq& m) const {
    put_header(w, WireType::kRecoveryReq);
    put_node(w, m.from);
    put_vv(w, m.durable_vv);
  }
  void operator()(const RecoveryVersion& m) const {
    put_header(w, WireType::kRecoveryVersion);
    put_key(w, m.version.key);
    put_string(w, m.version.value, Charge::kYes);
    w.u32(m.version.sr, Charge::kYes);
    w.i64(m.version.ut, Charge::kYes);
    put_vv(w, m.version.dv);
    w.u8(m.version.opt_origin ? 1 : 0, Charge::kYes);
  }
  void operator()(const RecoveryDone& m) const {
    put_header(w, WireType::kRecoveryDone);
    put_node(w, m.from);
    put_vv(w, m.vv);
  }
  void operator()(const Overloaded& m) const {
    put_header(w, WireType::kOverloaded);
    w.u64(m.client, Charge::kYes);
    w.i64(m.retry_after_us, Charge::kYes);
    w.varint(m.op_id, Charge::kNo);
  }
  void operator()(const RouteProbe&) const {
    POCC_ASSERT_MSG(false, "RouteProbe is test-only and never encoded");
  }
};

// ------------------------------------------------------------- decoding ----

class Reader {
 public:
  Reader(const std::uint8_t* p, std::size_t n) : p_(p), end_(p + n) {}

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] std::size_t remaining() const {
    return static_cast<std::size_t>(end_ - p_);
  }
  /// Raw read position (batch decoding carves sub-readers out of the body).
  [[nodiscard]] const std::uint8_t* cursor() const { return p_; }
  /// Advance past `n` bytes the caller consumed through a sub-reader.
  void skip(std::size_t n) {
    if (need(n, "skipped bytes")) p_ += n;
  }

  void fail(std::string msg) {
    if (ok_) {
      ok_ = false;
      error_ = std::move(msg);
    }
  }

  std::uint8_t u8() { return get_le<std::uint8_t>(); }
  std::uint16_t u16() { return get_le<std::uint16_t>(); }
  std::uint32_t u32() { return get_le<std::uint32_t>(); }
  std::uint64_t u64() { return get_le<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    std::size_t n = 0;
    switch (get_varint(p_, remaining(), 10, &v, &n)) {
      case VarintRead::kOk:
        p_ += n;
        return v;
      case VarintRead::kTruncated:
        fail("truncated frame: varint");
        return 0;
      case VarintRead::kMalformed:
        fail("malformed varint");
        return 0;
    }
    return 0;
  }
  std::uint32_t varint32() {
    const std::uint64_t v = varint();
    if (v > std::numeric_limits<std::uint32_t>::max()) {
      fail("varint exceeds 32 bits");
      return 0;
    }
    return static_cast<std::uint32_t>(v);
  }
  std::int64_t zigzag() {
    const std::uint64_t u = varint();
    return static_cast<std::int64_t>((u >> 1) ^ (0 - (u & 1)));
  }

  VersionVector vv() {
    const std::uint8_t n = u8();
    if (!ok_) return {};
    if (n == 0) return {};  // default-constructed (size 0) vector
    if (n > kMaxDcs) {
      fail("version vector wider than kMaxDcs");
      return {};
    }
    VersionVector v(n);
    for (std::uint8_t i = 0; i < n && ok_; ++i) v.set(i, i64());
    return v;
  }

  /// Key string off the wire, re-interned into this process's KeySpace.
  KeyId key() {
    const std::uint16_t n = u16();
    if (!ok_ || !need(n, "key bytes")) return 0;
    const auto* s = reinterpret_cast<const char*>(p_);
    p_ += n;
    return store::KeySpace::global().intern(std::string_view(s, n));
  }

  std::string str() {
    const std::uint32_t n = u32();
    if (!ok_ || !need(n, "string bytes")) return {};
    std::string s(reinterpret_cast<const char*>(p_), n);
    p_ += n;
    return s;
  }

  NodeId node() {
    NodeId n;
    n.dc = u32();
    n.part = u32();
    return n;
  }

  std::vector<KeyId> key_list() {
    const std::uint32_t n = u32();
    std::vector<KeyId> keys;
    // Each key costs >= 2 bytes on the wire; an implausible count is
    // corruption, not a reason to pre-allocate gigabytes.
    if (!ok_ || n > remaining() / 2 + 1) {
      fail("implausible key count");
      return keys;
    }
    keys.reserve(n);
    for (std::uint32_t i = 0; i < n && ok_; ++i) keys.push_back(key());
    return keys;
  }

  ReadItem item() {
    ReadItem it;
    it.key = key();
    it.found = u8() != 0;
    it.value = str();
    it.sr = u32();
    it.ut = i64();
    it.dv = vv();
    it.fresher_versions = varint32();
    it.unmerged_versions = varint32();
    return it;
  }

  std::vector<ReadItem> item_list() {
    const std::uint32_t n = u32();
    std::vector<ReadItem> items;
    if (!ok_ || n > remaining() / 20 + 1) {  // >= ~20 bytes per item
      fail("implausible item count");
      return items;
    }
    items.reserve(n);
    for (std::uint32_t i = 0; i < n && ok_; ++i) items.push_back(item());
    return items;
  }

 private:
  bool need(std::size_t n, const char* what) {
    if (remaining() >= n) return true;
    fail(std::string("truncated frame: ") + what);
    return false;
  }

  template <typename T>
  T get_le() {
    if (!need(sizeof(T), "fixed field")) return T{};
    T v{};
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<std::uint64_t>(p_[i]) << (8 * i)));
    }
    p_ += sizeof(T);
    return v;
  }

  const std::uint8_t* p_;
  const std::uint8_t* end_;
  bool ok_ = true;
  std::string error_;
};

Frame decode_body(Reader& r, WireType type);

/// One routed sub-message of a Batch body: partitions, sub-length, then a
/// full (version + type + payload) message body; the DCs come from the batch
/// header. Only protocol messages are legal — control frames and nested
/// batches are corruption.
bool decode_batch_item(Reader& r, DcId from_dc, DcId to_dc,
                       RoutedMessage* out) {
  out->from = NodeId{from_dc, r.varint32()};
  out->to = NodeId{to_dc, r.varint32()};
  const std::uint64_t len = r.varint();
  if (!r.ok()) return false;
  if (len < 2 || len > r.remaining()) {
    r.fail("truncated batch item");
    return false;
  }
  Reader sub(r.cursor(), static_cast<std::size_t>(len));
  const std::uint8_t version = sub.u8();
  if (version != kWireVersion) {
    r.fail("unsupported wire version inside batch");
    return false;
  }
  const std::uint8_t type = sub.u8();
  if (type > kMaxProtocolWireType) {
    r.fail("batch item is not a protocol message");
    return false;
  }
  Frame f = decode_body(sub, static_cast<WireType>(type));
  if (!sub.ok()) {
    r.fail(sub.error());
    return false;
  }
  if (sub.remaining() != 0) {
    r.fail("trailing bytes in batch item");
    return false;
  }
  r.skip(static_cast<std::size_t>(len));
  out->msg = std::move(std::get<Message>(f));
  return true;
}

Frame decode_body(Reader& r, WireType type) {
  switch (type) {
    case WireType::kGetReq: {
      GetReq m;
      m.client = r.u64();
      m.key = r.key();
      m.rdv = r.vv();
      m.pessimistic = r.u8() != 0;
      m.op_id = r.varint();
      return Frame{Message{std::move(m)}};
    }
    case WireType::kPutReq: {
      PutReq m;
      m.client = r.u64();
      m.key = r.key();
      m.value = r.str();
      m.dv = r.vv();
      m.pessimistic = r.u8() != 0;
      m.op_id = r.varint();
      return Frame{Message{std::move(m)}};
    }
    case WireType::kRoTxReq: {
      RoTxReq m;
      m.client = r.u64();
      m.keys = r.key_list();
      m.rdv = r.vv();
      m.pessimistic = r.u8() != 0;
      m.op_id = r.varint();
      return Frame{Message{std::move(m)}};
    }
    case WireType::kGetReply: {
      GetReply m;
      m.client = r.u64();
      m.item = r.item();
      m.blocked_us = r.zigzag();
      m.op_id = r.varint();
      return Frame{Message{std::move(m)}};
    }
    case WireType::kPutReply: {
      PutReply m;
      m.client = r.u64();
      m.key = r.key();
      m.ut = r.i64();
      m.sr = r.u32();
      m.blocked_us = r.zigzag();
      m.op_id = r.varint();
      return Frame{Message{std::move(m)}};
    }
    case WireType::kRoTxReply: {
      RoTxReply m;
      m.client = r.u64();
      m.items = r.item_list();
      m.tv = r.vv();
      m.blocked_us = r.zigzag();
      m.op_id = r.varint();
      return Frame{Message{std::move(m)}};
    }
    case WireType::kSessionClosed: {
      SessionClosed m;
      m.client = r.u64();
      m.reason = r.str();
      return Frame{Message{std::move(m)}};
    }
    case WireType::kReplicate: {
      Replicate m;
      m.version.key = r.key();
      m.version.value = r.str();
      m.version.sr = r.u32();
      m.version.ut = r.i64();
      m.version.dv = r.vv();
      m.version.opt_origin = r.u8() != 0;
      return Frame{Message{std::move(m)}};
    }
    case WireType::kHeartbeat: {
      Heartbeat m;
      m.src_dc = r.u32();
      m.ts = r.i64();
      return Frame{Message{m}};
    }
    case WireType::kSliceReq: {
      SliceReq m;
      m.tx_id = r.u64();
      m.coordinator = r.node();
      m.keys = r.key_list();
      m.tv = r.vv();
      m.pessimistic = r.u8() != 0;
      return Frame{Message{std::move(m)}};
    }
    case WireType::kSliceReply: {
      SliceReply m;
      m.tx_id = r.u64();
      m.items = r.item_list();
      m.aborted = r.u8() != 0;
      m.blocked_us = r.zigzag();
      return Frame{Message{std::move(m)}};
    }
    case WireType::kGcReport: {
      GcReport m;
      m.from = r.node();
      m.low_watermark = r.vv();
      return Frame{Message{std::move(m)}};
    }
    case WireType::kGcVector: {
      GcVector m;
      m.gv = r.vv();
      return Frame{Message{std::move(m)}};
    }
    case WireType::kStabReport: {
      StabReport m;
      m.from = r.node();
      m.vv = r.vv();
      return Frame{Message{std::move(m)}};
    }
    case WireType::kGssBroadcast: {
      GssBroadcast m;
      m.gss = r.vv();
      return Frame{Message{std::move(m)}};
    }
    case WireType::kRecoveryReq: {
      RecoveryReq m;
      m.from = r.node();
      m.durable_vv = r.vv();
      return Frame{Message{std::move(m)}};
    }
    case WireType::kRecoveryVersion: {
      RecoveryVersion m;
      m.version.key = r.key();
      m.version.value = r.str();
      m.version.sr = r.u32();
      m.version.ut = r.i64();
      m.version.dv = r.vv();
      m.version.opt_origin = r.u8() != 0;
      return Frame{Message{std::move(m)}};
    }
    case WireType::kRecoveryDone: {
      RecoveryDone m;
      m.from = r.node();
      m.vv = r.vv();
      return Frame{Message{std::move(m)}};
    }
    case WireType::kOverloaded: {
      Overloaded m;
      m.client = r.u64();
      m.retry_after_us = r.i64();
      m.op_id = r.varint();
      return Frame{Message{m}};
    }
    case WireType::kNodeHello: {
      NodeHello h;
      h.node = r.node();
      return Frame{h};
    }
    case WireType::kClientHello: {
      ClientHello h;
      h.client = r.u64();
      h.preferred_part = r.u32();
      return Frame{h};
    }
    case WireType::kBatch: {
      const DcId from_dc = r.varint32();
      const DcId to_dc = r.varint32();
      const std::uint64_t n = r.varint();
      BatchFrame batch;
      if (!r.ok()) return Frame{};
      if (n == 0) {
        r.fail("empty batch");
        return Frame{};
      }
      if (n > r.remaining() / kMinBatchItemBytes) {
        r.fail("implausible batch count");
        return Frame{};
      }
      batch.items.reserve(static_cast<std::size_t>(n));
      for (std::uint64_t i = 0; i < n; ++i) {
        RoutedMessage item;
        if (!decode_batch_item(r, from_dc, to_dc, &item)) return Frame{};
        batch.items.push_back(std::move(item));
      }
      return Frame{std::move(batch)};
    }
  }
  r.fail("unknown message type " + std::to_string(static_cast<int>(type)));
  return Frame{};
}

bool known_type(std::uint8_t t) {
  return t <= kMaxProtocolWireType ||
         t == static_cast<std::uint8_t>(WireType::kNodeHello) ||
         t == static_cast<std::uint8_t>(WireType::kClientHello) ||
         t == static_cast<std::uint8_t>(WireType::kBatch);
}

/// Reserve a one-byte length prefix, encode via `fn`, then fill the prefix
/// (widened in place for bodies of 128 bytes or more).
template <typename Fn>
std::size_t encode_with_prefix(std::vector<std::uint8_t>& out, Fn&& fn) {
  const std::size_t prefix_at = out.size();
  out.push_back(0);
  Writer w(out);
  fn(w);
  const std::size_t body = out.size() - prefix_at - 1;
  POCC_ASSERT_MSG(body <= kMaxFrameBytes, "frame exceeds kMaxFrameBytes");
  fill_varint_slot(out, prefix_at, body);
  return body;
}

}  // namespace

std::size_t encode(const Message& m, std::vector<std::uint8_t>& out) {
  const std::size_t expected = wire_size(m);
  // Size the buffer once: the charged bytes plus the prefix and room for
  // the uncharged varints (op_id, blocked_us, a ReadItem's counters) —
  // growing a fresh vector byte by byte costs several reallocations. Growth
  // stays geometric when `out` already holds other frames.
  const std::size_t need =
      out.size() + kMaxFramePrefixBytes + expected + kUnchargedSlackBytes;
  if (need > out.capacity()) {
    out.reserve(std::max(need, 2 * out.capacity()));
  }
  std::size_t charged = 0;
  const std::size_t body = encode_with_prefix(out, [&](Writer& w) {
    std::visit(EncodeVisitor{w}, m);
    charged = w.charged();
  });
  // The §V accounting model and the real wire format must agree exactly
  // (messages.hpp charging rule); any new or resized field shows up here.
  POCC_ASSERT_MSG(charged == expected,
                  "encoded protocol bytes diverged from wire_size()");
  return body;
}

std::size_t encode(const NodeHello& h, std::vector<std::uint8_t>& out) {
  return encode_with_prefix(out, [&](Writer& w) {
    put_header(w, WireType::kNodeHello);
    put_node(w, h.node);
  });
}

std::size_t encode(const ClientHello& h, std::vector<std::uint8_t>& out) {
  return encode_with_prefix(out, [&](Writer& w) {
    put_header(w, WireType::kClientHello);
    w.u64(h.client, Charge::kYes);
    w.u32(h.preferred_part, Charge::kYes);
  });
}

// ------------------------------------------------------------- batching ----

BatchWriter::BatchWriter() = default;

void BatchWriter::add(NodeId from, NodeId to, const Message& m) {
  if (count_ == 0) {
    from_dc_ = from.dc;
    to_dc_ = to.dc;
  }
  POCC_ASSERT_MSG(from.dc == from_dc_ && to.dc == to_dc_,
                  "a batch carries one link: items must share both DCs");
  Writer w(items_);
  w.varint(from.part, Charge::kNo);
  w.varint(to.part, Charge::kNo);
  const std::size_t len_at = items_.size();
  items_.push_back(0);  // sub-body length slot, filled below
  std::visit(EncodeVisitor{w}, m);
  fill_varint_slot(items_, len_at, items_.size() - len_at - 1);
  // Same honesty rule as standalone frames: the charged bytes of every
  // batched message must equal its wire_size().
  POCC_ASSERT_MSG(w.charged() == wire_size(m),
                  "batched protocol bytes diverged from wire_size()");
  protocol_bytes_ += w.charged();
  ++count_;
}

std::size_t BatchWriter::body_bytes() const {
  if (count_ == 0) return 0;
  // version + type + sender dc + receiver dc + count, then the items.
  return 2 + varint_size(from_dc_) + varint_size(to_dc_) +
         varint_size(count_) + items_.size();
}

std::size_t BatchWriter::flush_to(std::vector<std::uint8_t>& out,
                                  BatchEncodeStats* stats) {
  POCC_ASSERT_MSG(count_ > 0, "flushing an empty batch");
  const std::size_t body = body_bytes();
  POCC_ASSERT_MSG(body <= kMaxFrameBytes, "batch exceeds kMaxFrameBytes");
  const std::size_t frame_start = out.size();
  out.reserve(frame_start + kMaxFramePrefixBytes + body);
  put_frame_prefix(out, body);
  // The whole header is batching overhead, never §V protocol bytes — the
  // per-message version/type live in the sub-bodies.
  Writer w(out);
  w.u8(kWireVersion, Charge::kNo);
  w.u8(static_cast<std::uint8_t>(WireType::kBatch), Charge::kNo);
  w.varint(from_dc_, Charge::kNo);
  w.varint(to_dc_, Charge::kNo);
  w.varint(count_, Charge::kNo);
  out.insert(out.end(), items_.begin(), items_.end());
  if (stats != nullptr) {
    stats->protocol_bytes = protocol_bytes_;
    stats->overhead_bytes = out.size() - frame_start - protocol_bytes_;
  }
  items_.clear();
  count_ = 0;
  protocol_bytes_ = 0;
  return body;
}

std::size_t encode(const BatchFrame& batch, std::vector<std::uint8_t>& out,
                   BatchEncodeStats* stats) {
  BatchWriter w;
  for (const RoutedMessage& item : batch.items) {
    w.add(item.from, item.to, item.msg);
  }
  return w.flush_to(out, stats);
}

// ------------------------------------------------------------ framing ------

FrameCut cut_frame(const std::uint8_t* data, std::size_t len) {
  FrameCut cut;
  std::uint64_t body = 0;
  std::size_t prefix = 0;
  switch (get_varint(data, len, kMaxFramePrefixBytes, &body, &prefix)) {
    case VarintRead::kTruncated:
      return cut;  // kNeedMore
    case VarintRead::kMalformed:
      cut.status = FrameStatus::kError;
      cut.error = "malformed frame length prefix";
      return cut;
    case VarintRead::kOk:
      break;
  }
  if (body > kMaxFrameBytes) {
    cut.status = FrameStatus::kError;
    cut.error = "frame length exceeds limit";
    return cut;
  }
  if (len - prefix < body) return cut;  // kNeedMore
  cut.status = FrameStatus::kOk;
  cut.prefix_bytes = prefix;
  cut.frame_bytes = prefix + static_cast<std::size_t>(body);
  return cut;
}

DecodeResult decode_frame(const std::uint8_t* data, std::size_t len) {
  DecodeResult res;
  const FrameCut cut = cut_frame(data, len);
  if (cut.status == FrameStatus::kNeedMore) return res;
  if (cut.status == FrameStatus::kError) {
    res.status = DecodeResult::Status::kError;
    res.error = cut.error;
    return res;
  }
  res.consumed = cut.frame_bytes;

  const std::size_t body = cut.frame_bytes - cut.prefix_bytes;
  Reader r(data + cut.prefix_bytes, body);
  if (body < 2) {
    res.status = DecodeResult::Status::kError;
    res.error = "frame too short for version + type";
    return res;
  }
  const std::uint8_t version = r.u8();
  if (version != kWireVersion) {
    res.status = DecodeResult::Status::kError;
    res.error = "unsupported wire version " + std::to_string(version);
    return res;
  }
  const std::uint8_t type = r.u8();
  if (!known_type(type)) {
    res.status = DecodeResult::Status::kError;
    res.error = "unknown message type " + std::to_string(type);
    return res;
  }
  Frame frame = decode_body(r, static_cast<WireType>(type));
  if (!r.ok()) {
    res.status = DecodeResult::Status::kError;
    res.error = r.error();
    return res;
  }
  if (r.remaining() != 0) {
    res.status = DecodeResult::Status::kError;
    res.error = std::to_string(r.remaining()) + " trailing bytes in frame";
    return res;
  }
  res.status = DecodeResult::Status::kOk;
  res.frame = std::move(frame);
  return res;
}

}  // namespace pocc::proto
