// Seed-deterministic codec fuzzing (ctest label `fuzz`, like the cluster
// fuzz suites — see docs/TESTING.md).
//
// Lanes:
//   * random well-formed messages and batches -> encode -> decode -> field
//     equality (batches also: protocol + overhead bytes == frame bytes),
//   * truncation: every well-formed frame cut at every length must decode as
//     kNeedMore or kError — never crash, never mis-decode as a full frame,
//   * length prefixes: truncated ones are kNeedMore, over-long, non-minimal
//     and over-limit ones are kError,
//   * corruption: random byte flips / random garbage must yield kOk with a
//     plausible frame, kNeedMore or kError — never a crash or an OOM.
#include "proto/codec.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "store/key_space.hpp"

namespace pocc::proto {
namespace {

constexpr std::uint64_t kCampaignSeed = 0xC0DEC0DEULL;

std::string random_string(Rng& rng, std::size_t max_len) {
  const std::size_t n = rng.uniform(max_len + 1);
  std::string s;
  s.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.push_back(static_cast<char>(rng.uniform(256)));
  }
  return s;
}

KeyId random_key(Rng& rng) {
  // Mix canonical workload keys with arbitrary (even empty/binary) strings.
  if (rng.uniform(2) == 0) {
    return store::KeySpace::global().intern_partition_key(
        static_cast<PartitionId>(rng.uniform(8)), rng.uniform(512));
  }
  return store::intern_key("fz:" + random_string(rng, 24));
}

VersionVector random_vv(Rng& rng) {
  const std::uint32_t n = static_cast<std::uint32_t>(rng.uniform(kMaxDcs + 1));
  if (n == 0) return {};
  VersionVector vv(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    vv.set(i, static_cast<Timestamp>(rng.uniform(1'000'000'000)));
  }
  return vv;
}

ReadItem random_item(Rng& rng) {
  ReadItem it;
  it.key = random_key(rng);
  it.found = rng.uniform(2) == 0;
  it.value = random_string(rng, 64);
  it.sr = static_cast<DcId>(rng.uniform(8));
  it.ut = static_cast<Timestamp>(rng.uniform(1'000'000'000));
  it.dv = random_vv(rng);
  it.fresher_versions = static_cast<std::uint32_t>(rng.uniform(100));
  it.unmerged_versions = static_cast<std::uint32_t>(rng.uniform(100));
  return it;
}

std::vector<ReadItem> random_items(Rng& rng, std::size_t max_n) {
  std::vector<ReadItem> items;
  const std::size_t n = rng.uniform(max_n + 1);
  for (std::size_t i = 0; i < n; ++i) items.push_back(random_item(rng));
  return items;
}

std::vector<KeyId> random_keys(Rng& rng, std::size_t max_n) {
  std::vector<KeyId> keys;
  const std::size_t n = rng.uniform(max_n + 1);
  for (std::size_t i = 0; i < n; ++i) keys.push_back(random_key(rng));
  return keys;
}

Message random_message(Rng& rng) {
  switch (rng.uniform(19)) {
    case 0: {
      GetReq m;
      m.client = rng.next();
      m.key = random_key(rng);
      m.rdv = random_vv(rng);
      m.pessimistic = rng.uniform(2) == 0;
      m.op_id = rng.next();
      return Message{std::move(m)};
    }
    case 1: {
      PutReq m;
      m.client = rng.next();
      m.key = random_key(rng);
      m.value = random_string(rng, 64);
      m.dv = random_vv(rng);
      m.pessimistic = rng.uniform(2) == 0;
      m.op_id = rng.next();
      return Message{std::move(m)};
    }
    case 2: {
      RoTxReq m;
      m.client = rng.next();
      m.keys = random_keys(rng, 16);
      m.rdv = random_vv(rng);
      m.pessimistic = rng.uniform(2) == 0;
      m.op_id = rng.next();
      return Message{std::move(m)};
    }
    case 3: {
      GetReply m;
      m.client = rng.next();
      m.item = random_item(rng);
      m.blocked_us = static_cast<Duration>(rng.uniform(1'000'000));
      m.op_id = rng.next();
      return Message{std::move(m)};
    }
    case 4: {
      PutReply m;
      m.client = rng.next();
      m.key = random_key(rng);
      m.ut = static_cast<Timestamp>(rng.uniform(1'000'000'000));
      m.sr = static_cast<DcId>(rng.uniform(8));
      m.blocked_us = static_cast<Duration>(rng.uniform(1'000'000));
      m.op_id = rng.next();
      return Message{std::move(m)};
    }
    case 5: {
      RoTxReply m;
      m.client = rng.next();
      m.items = random_items(rng, 8);
      m.tv = random_vv(rng);
      m.blocked_us = static_cast<Duration>(rng.uniform(1'000'000));
      m.op_id = rng.next();
      return Message{std::move(m)};
    }
    case 6: {
      SessionClosed m;
      m.client = rng.next();
      m.reason = random_string(rng, 48);
      return Message{std::move(m)};
    }
    case 7: {
      Replicate m;
      m.version.key = random_key(rng);
      m.version.value = random_string(rng, 64);
      m.version.sr = static_cast<DcId>(rng.uniform(8));
      m.version.ut = static_cast<Timestamp>(rng.uniform(1'000'000'000));
      m.version.dv = random_vv(rng);
      m.version.opt_origin = rng.uniform(2) == 0;
      return Message{std::move(m)};
    }
    case 8: {
      Heartbeat m;
      m.src_dc = static_cast<DcId>(rng.uniform(8));
      m.ts = static_cast<Timestamp>(rng.uniform(1'000'000'000));
      return Message{m};
    }
    case 9: {
      SliceReq m;
      m.tx_id = rng.next();
      m.coordinator = NodeId{static_cast<DcId>(rng.uniform(8)),
                             static_cast<PartitionId>(rng.uniform(32))};
      m.keys = random_keys(rng, 16);
      m.tv = random_vv(rng);
      m.pessimistic = rng.uniform(2) == 0;
      return Message{std::move(m)};
    }
    case 10: {
      SliceReply m;
      m.tx_id = rng.next();
      m.items = random_items(rng, 8);
      m.blocked_us = static_cast<Duration>(rng.uniform(1'000'000));
      m.aborted = rng.uniform(2) == 0;
      return Message{std::move(m)};
    }
    case 11: {
      GcReport m;
      m.from = NodeId{static_cast<DcId>(rng.uniform(8)),
                      static_cast<PartitionId>(rng.uniform(32))};
      m.low_watermark = random_vv(rng);
      return Message{std::move(m)};
    }
    case 12: {
      GcVector m;
      m.gv = random_vv(rng);
      return Message{std::move(m)};
    }
    case 13: {
      StabReport m;
      m.from = NodeId{static_cast<DcId>(rng.uniform(8)),
                      static_cast<PartitionId>(rng.uniform(32))};
      m.vv = random_vv(rng);
      return Message{std::move(m)};
    }
    case 14: {
      GssBroadcast m;
      m.gss = random_vv(rng);
      return Message{std::move(m)};
    }
    case 15: {
      RecoveryReq m;
      m.from = NodeId{static_cast<DcId>(rng.uniform(8)),
                      static_cast<PartitionId>(rng.uniform(32))};
      m.durable_vv = random_vv(rng);
      return Message{std::move(m)};
    }
    case 16: {
      RecoveryVersion m;
      m.version.key = random_key(rng);
      m.version.value = random_string(rng, 64);
      m.version.sr = static_cast<DcId>(rng.uniform(8));
      m.version.ut = static_cast<Timestamp>(rng.uniform(1'000'000'000));
      m.version.dv = random_vv(rng);
      m.version.opt_origin = rng.uniform(2) == 0;
      return Message{std::move(m)};
    }
    case 17: {
      RecoveryDone m;
      m.from = NodeId{static_cast<DcId>(rng.uniform(8)),
                      static_cast<PartitionId>(rng.uniform(32))};
      m.vv = random_vv(rng);
      return Message{std::move(m)};
    }
    default: {
      Overloaded m;
      m.client = rng.next();
      m.retry_after_us = static_cast<Duration>(rng.uniform(10'000'000));
      m.op_id = rng.next();
      return Message{m};
    }
  }
}

bool items_equal(const ReadItem& a, const ReadItem& b) {
  return a.key == b.key && a.found == b.found && a.value == b.value &&
         a.sr == b.sr && a.ut == b.ut && a.dv == b.dv &&
         a.fresher_versions == b.fresher_versions &&
         a.unmerged_versions == b.unmerged_versions;
}

bool item_lists_equal(const std::vector<ReadItem>& a,
                      const std::vector<ReadItem>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!items_equal(a[i], b[i])) return false;
  }
  return true;
}

struct EqualVisitor {
  const Message& rhs;

  bool operator()(const GetReq& a) const {
    const auto& b = std::get<GetReq>(rhs);
    return a.client == b.client && a.key == b.key && a.rdv == b.rdv &&
           a.pessimistic == b.pessimistic && a.op_id == b.op_id;
  }
  bool operator()(const PutReq& a) const {
    const auto& b = std::get<PutReq>(rhs);
    return a.client == b.client && a.key == b.key && a.value == b.value &&
           a.dv == b.dv && a.pessimistic == b.pessimistic &&
           a.op_id == b.op_id;
  }
  bool operator()(const RoTxReq& a) const {
    const auto& b = std::get<RoTxReq>(rhs);
    return a.client == b.client && a.keys == b.keys && a.rdv == b.rdv &&
           a.pessimistic == b.pessimistic && a.op_id == b.op_id;
  }
  bool operator()(const GetReply& a) const {
    const auto& b = std::get<GetReply>(rhs);
    return a.client == b.client && items_equal(a.item, b.item) &&
           a.blocked_us == b.blocked_us && a.op_id == b.op_id;
  }
  bool operator()(const PutReply& a) const {
    const auto& b = std::get<PutReply>(rhs);
    return a.client == b.client && a.key == b.key && a.ut == b.ut &&
           a.sr == b.sr && a.blocked_us == b.blocked_us && a.op_id == b.op_id;
  }
  bool operator()(const RoTxReply& a) const {
    const auto& b = std::get<RoTxReply>(rhs);
    return a.client == b.client && item_lists_equal(a.items, b.items) &&
           a.tv == b.tv && a.blocked_us == b.blocked_us && a.op_id == b.op_id;
  }
  bool operator()(const SessionClosed& a) const {
    const auto& b = std::get<SessionClosed>(rhs);
    return a.client == b.client && a.reason == b.reason;
  }
  bool operator()(const Replicate& a) const {
    const auto& b = std::get<Replicate>(rhs);
    return a.version.key == b.version.key &&
           a.version.value == b.version.value &&
           a.version.sr == b.version.sr && a.version.ut == b.version.ut &&
           a.version.dv == b.version.dv &&
           a.version.opt_origin == b.version.opt_origin;
  }
  bool operator()(const Heartbeat& a) const {
    const auto& b = std::get<Heartbeat>(rhs);
    return a.src_dc == b.src_dc && a.ts == b.ts;
  }
  bool operator()(const SliceReq& a) const {
    const auto& b = std::get<SliceReq>(rhs);
    return a.tx_id == b.tx_id && a.coordinator == b.coordinator &&
           a.keys == b.keys && a.tv == b.tv &&
           a.pessimistic == b.pessimistic;
  }
  bool operator()(const SliceReply& a) const {
    const auto& b = std::get<SliceReply>(rhs);
    return a.tx_id == b.tx_id && item_lists_equal(a.items, b.items) &&
           a.blocked_us == b.blocked_us && a.aborted == b.aborted;
  }
  bool operator()(const GcReport& a) const {
    const auto& b = std::get<GcReport>(rhs);
    return a.from == b.from && a.low_watermark == b.low_watermark;
  }
  bool operator()(const GcVector& a) const {
    return a.gv == std::get<GcVector>(rhs).gv;
  }
  bool operator()(const StabReport& a) const {
    const auto& b = std::get<StabReport>(rhs);
    return a.from == b.from && a.vv == b.vv;
  }
  bool operator()(const GssBroadcast& a) const {
    return a.gss == std::get<GssBroadcast>(rhs).gss;
  }
  bool operator()(const RecoveryReq& a) const {
    const auto& b = std::get<RecoveryReq>(rhs);
    return a.from == b.from && a.durable_vv == b.durable_vv;
  }
  bool operator()(const RecoveryVersion& a) const {
    const auto& b = std::get<RecoveryVersion>(rhs);
    return a.version.key == b.version.key &&
           a.version.value == b.version.value &&
           a.version.sr == b.version.sr && a.version.ut == b.version.ut &&
           a.version.dv == b.version.dv &&
           a.version.opt_origin == b.version.opt_origin;
  }
  bool operator()(const RecoveryDone& a) const {
    const auto& b = std::get<RecoveryDone>(rhs);
    return a.from == b.from && a.vv == b.vv;
  }
  bool operator()(const Overloaded& a) const {
    const auto& b = std::get<Overloaded>(rhs);
    return a.client == b.client && a.retry_after_us == b.retry_after_us &&
           a.op_id == b.op_id;
  }
  bool operator()(const RouteProbe&) const { return false; }
};

bool messages_equal(const Message& a, const Message& b) {
  if (a.index() != b.index()) return false;
  return std::visit(EqualVisitor{b}, a);
}

TEST(CodecFuzz, RandomMessagesRoundTripExactly) {
  Rng rng(kCampaignSeed);
  for (int i = 0; i < 2'000; ++i) {
    const Message m = random_message(rng);
    std::vector<std::uint8_t> buf;
    encode(m, buf);
    const DecodeResult res = decode_frame(buf.data(), buf.size());
    ASSERT_EQ(res.status, DecodeResult::Status::kOk)
        << "iteration " << i << " (" << message_name(m) << "): " << res.error;
    ASSERT_EQ(res.consumed, buf.size());
    ASSERT_TRUE(messages_equal(m, std::get<Message>(res.frame)))
        << "iteration " << i << ": " << message_name(m)
        << " did not round-trip";
  }
}

/// A batch of one link: every item shares the sender and receiver DC.
BatchFrame random_batch(Rng& rng) {
  BatchFrame batch;
  const std::size_t n = 1 + rng.uniform(5);
  const auto from_dc = static_cast<DcId>(rng.uniform(8));
  const auto to_dc = static_cast<DcId>(rng.uniform(8));
  for (std::size_t i = 0; i < n; ++i) {
    RoutedMessage item;
    item.from = NodeId{from_dc, static_cast<PartitionId>(rng.uniform(4096))};
    item.to = NodeId{to_dc, static_cast<PartitionId>(rng.uniform(4096))};
    item.msg = random_message(rng);
    batch.items.push_back(std::move(item));
  }
  return batch;
}

TEST(CodecFuzz, RandomBatchesRoundTripExactly) {
  Rng rng(kCampaignSeed + 4);
  for (int i = 0; i < 500; ++i) {
    const BatchFrame batch = random_batch(rng);
    std::vector<std::uint8_t> buf;
    BatchEncodeStats stats;
    encode(batch, buf, &stats);
    // The split is exact for every composition: the protocol share is what
    // wire_size() charges, and the overhead is every other byte written.
    std::size_t charged = 0;
    for (const RoutedMessage& item : batch.items) {
      charged += wire_size(item.msg);
    }
    ASSERT_EQ(stats.protocol_bytes, charged);
    ASSERT_EQ(stats.protocol_bytes + stats.overhead_bytes, buf.size());
    const DecodeResult res = decode_frame(buf.data(), buf.size());
    ASSERT_EQ(res.status, DecodeResult::Status::kOk)
        << "iteration " << i << ": " << res.error;
    ASSERT_EQ(res.consumed, buf.size());
    const auto& decoded = std::get<BatchFrame>(res.frame);
    ASSERT_EQ(decoded.items.size(), batch.items.size());
    for (std::size_t j = 0; j < batch.items.size(); ++j) {
      ASSERT_EQ(decoded.items[j].from, batch.items[j].from);
      ASSERT_EQ(decoded.items[j].to, batch.items[j].to);
      ASSERT_TRUE(messages_equal(decoded.items[j].msg, batch.items[j].msg))
          << "iteration " << i << " item " << j << ": "
          << message_name(batch.items[j].msg) << " did not round-trip";
    }
  }
}

TEST(CodecFuzz, TruncatedBatchesNeverDecode) {
  Rng rng(kCampaignSeed + 5);
  for (int i = 0; i < 60; ++i) {
    const BatchFrame batch = random_batch(rng);
    std::vector<std::uint8_t> buf;
    encode(batch, buf);
    for (std::size_t cut = 0; cut < buf.size(); ++cut) {
      const DecodeResult res = decode_frame(buf.data(), cut);
      ASSERT_EQ(res.status, DecodeResult::Status::kNeedMore)
          << "batch cut at " << cut;
    }
  }
}

TEST(CodecFuzz, BatchByteFlipsNeverCrash) {
  Rng rng(kCampaignSeed + 6);
  for (int i = 0; i < 1'000; ++i) {
    const BatchFrame batch = random_batch(rng);
    std::vector<std::uint8_t> buf;
    encode(batch, buf);
    const std::size_t flips = 1 + rng.uniform(4);
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t at = rng.uniform(buf.size());
      buf[at] ^= static_cast<std::uint8_t>(1 + rng.uniform(255));
    }
    const DecodeResult res = decode_frame(buf.data(), buf.size());
    if (res.status == DecodeResult::Status::kOk) {
      ASSERT_LE(res.consumed, buf.size());
    }
  }
}

TEST(CodecFuzz, TruncatedFramesNeverDecode) {
  Rng rng(kCampaignSeed + 1);
  for (int i = 0; i < 300; ++i) {
    const Message m = random_message(rng);
    std::vector<std::uint8_t> buf;
    encode(m, buf);
    // Every strict prefix must report kNeedMore (frame not complete yet).
    for (std::size_t cut = 0; cut < buf.size(); ++cut) {
      const DecodeResult res = decode_frame(buf.data(), cut);
      ASSERT_EQ(res.status, DecodeResult::Status::kNeedMore)
          << message_name(m) << " cut at " << cut;
    }
  }
}

/// Minimal LEB128 bytes of `v`, written independently of the codec.
std::vector<std::uint8_t> leb128(std::uint64_t v) {
  std::vector<std::uint8_t> out;
  do {
    const auto group = static_cast<std::uint8_t>(v & 0x7f);
    v >>= 7;
    out.push_back(v != 0 ? (group | 0x80) : group);
  } while (v != 0);
  return out;
}

TEST(CodecFuzz, TruncatedPrefixesNeedMore) {
  Rng rng(kCampaignSeed + 7);
  for (int i = 0; i < 2'000; ++i) {
    // Spread lengths over every prefix width up to kMaxFrameBytes.
    const std::uint64_t body =
        rng.uniform(std::uint64_t{1} << (7 * (1 + rng.uniform(4)))) %
        (kMaxFrameBytes + 1);
    const std::vector<std::uint8_t> prefix = leb128(body);
    // Every strict prefix of the prefix, and the whole prefix without the
    // body, is an incomplete frame — never an error.
    for (std::size_t cut = 0; cut < prefix.size(); ++cut) {
      ASSERT_EQ(cut_frame(prefix.data(), cut).status, FrameStatus::kNeedMore)
          << body << " cut at " << cut;
      ASSERT_EQ(decode_frame(prefix.data(), cut).status,
                DecodeResult::Status::kNeedMore);
    }
    if (body > 0) {
      ASSERT_EQ(cut_frame(prefix.data(), prefix.size()).status,
                FrameStatus::kNeedMore)
          << body;
    }
  }
}

TEST(CodecFuzz, MalformedPrefixesAreErrors) {
  Rng rng(kCampaignSeed + 8);
  for (int i = 0; i < 2'000; ++i) {
    std::vector<std::uint8_t> buf;
    switch (rng.uniform(3)) {
      case 0: {  // over-long: four continuation bytes, then anything
        for (int b = 0; b < 4; ++b) {
          buf.push_back(static_cast<std::uint8_t>(0x80 | rng.uniform(128)));
        }
        break;
      }
      case 1: {  // non-minimal: a value padded with a zero final group
        buf = leb128(rng.uniform(std::uint64_t{1} << 21));
        buf.back() |= 0x80;
        buf.push_back(0x00);
        break;
      }
      default: {  // minimal but above kMaxFrameBytes, up to 4 bytes
        const std::uint64_t above = (std::uint64_t{1} << 28) - kMaxFrameBytes;
        buf = leb128(kMaxFrameBytes + 1 + rng.uniform(above - 1));
        break;
      }
    }
    // Trailing bytes (a would-be body) must not change the verdict.
    const std::size_t extra = rng.uniform(8);
    for (std::size_t b = 0; b < extra; ++b) {
      buf.push_back(static_cast<std::uint8_t>(rng.uniform(256)));
    }
    ASSERT_EQ(cut_frame(buf.data(), buf.size()).status, FrameStatus::kError)
        << "iteration " << i;
    ASSERT_EQ(decode_frame(buf.data(), buf.size()).status,
              DecodeResult::Status::kError);
  }
}

TEST(CodecFuzz, ByteFlipsNeverCrash) {
  Rng rng(kCampaignSeed + 2);
  std::uint64_t survived = 0;
  for (int i = 0; i < 2'000; ++i) {
    const Message m = random_message(rng);
    std::vector<std::uint8_t> buf;
    encode(m, buf);
    // Flip 1-4 random bytes anywhere in the frame (including the prefix).
    const std::size_t flips = 1 + rng.uniform(4);
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t at = rng.uniform(buf.size());
      buf[at] ^= static_cast<std::uint8_t>(1 + rng.uniform(255));
    }
    const DecodeResult res = decode_frame(buf.data(), buf.size());
    // Any status is legal — a flip in an uninterpreted byte still decodes —
    // but the decoder must neither crash nor return a bogus consumed count.
    if (res.status == DecodeResult::Status::kOk) {
      ASSERT_LE(res.consumed, buf.size());
      ++survived;
    }
  }
  // Sanity: some flips (e.g. in value bytes) must survive decoding.
  EXPECT_GT(survived, 0u);
}

TEST(CodecFuzz, RandomGarbageNeverCrashes) {
  Rng rng(kCampaignSeed + 3);
  for (int i = 0; i < 5'000; ++i) {
    std::vector<std::uint8_t> buf;
    const std::size_t n = rng.uniform(256);
    buf.reserve(n);
    for (std::size_t b = 0; b < n; ++b) {
      buf.push_back(static_cast<std::uint8_t>(rng.uniform(256)));
    }
    const DecodeResult res = decode_frame(buf.data(), buf.size());
    if (res.status == DecodeResult::Status::kOk) {
      ASSERT_LE(res.consumed, buf.size());
    }
  }
}

}  // namespace
}  // namespace pocc::proto
