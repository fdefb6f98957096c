// Wire codec: exhaustive per-variant round trips, charged-bytes == wire_size
// verification against an independent framing model, varint boundary
// values, golden v6 frames, version/type/prefix rejection, and key
// re-interning semantics.
#include "proto/codec.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "store/key_space.hpp"

namespace pocc::proto {
namespace {

KeyId K(const std::string& key) { return store::intern_key(key); }

VersionVector vv3() { return VersionVector{101, 202, 303}; }

ReadItem sample_item(const std::string& key, const std::string& value) {
  ReadItem it;
  it.key = K(key);
  it.found = true;
  it.value = value;
  it.sr = 2;
  it.ut = 777'001;
  it.dv = vv3();
  it.fresher_versions = 3;
  it.unmerged_versions = 1;
  return it;
}

/// Minimal LEB128 bytes of `v` — the test's own model of the varint form.
std::vector<std::uint8_t> leb128(std::uint64_t v) {
  std::vector<std::uint8_t> out;
  do {
    const auto group = static_cast<std::uint8_t>(v & 0x7f);
    v >>= 7;
    out.push_back(v != 0 ? (group | 0x80) : group);
  } while (v != 0);
  return out;
}

std::size_t leb128_bytes(std::uint64_t v) { return leb128(v).size(); }

/// Zigzag-mapped LEB128 length of a signed value.
std::size_t zigzag_bytes(std::int64_t v) {
  const auto u = static_cast<std::uint64_t>(v);
  return leb128_bytes(v >= 0 ? u * 2 : ~u * 2 + 1);
}

/// Encode + decode one message and return the decoded copy.
Message round_trip(const Message& m) {
  std::vector<std::uint8_t> buf;
  const std::size_t body = encode(m, buf);
  EXPECT_EQ(buf.size(), body + leb128_bytes(body));
  const DecodeResult res = decode_frame(buf.data(), buf.size());
  EXPECT_EQ(res.status, DecodeResult::Status::kOk) << res.error;
  EXPECT_EQ(res.consumed, buf.size());
  EXPECT_TRUE(std::holds_alternative<Message>(res.frame));
  return std::get<Message>(res.frame);
}

bool items_equal(const ReadItem& a, const ReadItem& b) {
  return a.key == b.key && a.found == b.found && a.value == b.value &&
         a.sr == b.sr && a.ut == b.ut && a.dv == b.dv &&
         a.fresher_versions == b.fresher_versions &&
         a.unmerged_versions == b.unmerged_versions;
}

/// The per-item measurement counters, each a varint.
std::size_t item_framing_bytes(const ReadItem& it) {
  return leb128_bytes(it.fresher_versions) + leb128_bytes(it.unmerged_versions);
}

std::size_t items_framing_bytes(const std::vector<ReadItem>& items) {
  std::size_t n = 0;
  for (const ReadItem& it : items) n += item_framing_bytes(it);
  return n;
}

/// Transport-framing bytes the codec carries in a body beyond wire_size():
/// op_id (varint), blocked_us (zigzag varint) and the per-item measurement
/// counters (varints); the frame length prefix is accounted separately.
/// Independent model for the charged-bytes test.
std::size_t framing_bytes(const Message& m) {
  switch (m.index()) {
    case 0:  // GetReq: op_id
      return leb128_bytes(std::get<GetReq>(m).op_id);
    case 1:  // PutReq: op_id
      return leb128_bytes(std::get<PutReq>(m).op_id);
    case 2:  // RoTxReq: op_id
      return leb128_bytes(std::get<RoTxReq>(m).op_id);
    case 3: {  // GetReply: item measurement fields + blocked_us + op_id
      const auto& r = std::get<GetReply>(m);
      return item_framing_bytes(r.item) + zigzag_bytes(r.blocked_us) +
             leb128_bytes(r.op_id);
    }
    case 4: {  // PutReply: blocked_us + op_id
      const auto& r = std::get<PutReply>(m);
      return zigzag_bytes(r.blocked_us) + leb128_bytes(r.op_id);
    }
    case 5: {  // RoTxReply: per-item measurement fields + blocked_us + op_id
      const auto& r = std::get<RoTxReply>(m);
      return items_framing_bytes(r.items) + zigzag_bytes(r.blocked_us) +
             leb128_bytes(r.op_id);
    }
    case 10: {  // SliceReply: per-item measurement fields + blocked_us
      const auto& r = std::get<SliceReply>(m);
      return items_framing_bytes(r.items) + zigzag_bytes(r.blocked_us);
    }
    case 18:  // Overloaded: op_id
      return leb128_bytes(std::get<Overloaded>(m).op_id);
    default:
      return 0;
  }
}

/// Encoded body must be exactly wire_size() + documented transport framing,
/// and the frame exactly that plus the varint length prefix.
void expect_honest_accounting(const Message& m) {
  std::vector<std::uint8_t> buf;
  const std::size_t body = encode(m, buf);
  EXPECT_EQ(body, wire_size(m) + framing_bytes(m)) << message_name(m);
  EXPECT_EQ(buf.size(), body + leb128_bytes(body)) << message_name(m);
}

/// A frame around a hand-built body.
std::vector<std::uint8_t> frame_with_body(
    const std::vector<std::uint8_t>& body) {
  std::vector<std::uint8_t> buf = leb128(body.size());
  buf.insert(buf.end(), body.begin(), body.end());
  return buf;
}

TEST(Codec, GetReqRoundTrip) {
  GetReq m;
  m.client = 42;
  m.key = K("codec:get");
  m.rdv = vv3();
  m.pessimistic = true;
  m.op_id = 9'001;
  const auto d = std::get<GetReq>(round_trip(Message{m}));
  EXPECT_EQ(d.client, m.client);
  EXPECT_EQ(d.key, m.key);
  EXPECT_EQ(d.rdv, m.rdv);
  EXPECT_EQ(d.pessimistic, m.pessimistic);
  EXPECT_EQ(d.op_id, m.op_id);
  expect_honest_accounting(Message{m});
}

TEST(Codec, PutReqRoundTrip) {
  PutReq m;
  m.client = 7;
  m.key = K("codec:put");
  m.value = "value-bytes";
  m.dv = vv3();
  m.op_id = 3;
  const auto d = std::get<PutReq>(round_trip(Message{m}));
  EXPECT_EQ(d.client, m.client);
  EXPECT_EQ(d.key, m.key);
  EXPECT_EQ(d.value, m.value);
  EXPECT_EQ(d.dv, m.dv);
  EXPECT_FALSE(d.pessimistic);
  EXPECT_EQ(d.op_id, m.op_id);
  expect_honest_accounting(Message{m});
}

TEST(Codec, RoTxReqRoundTrip) {
  RoTxReq m;
  m.client = 11;
  m.keys = {K("codec:a"), K("codec:b"), K("codec:c")};
  m.rdv = vv3();
  m.pessimistic = true;
  m.op_id = 5;
  const auto d = std::get<RoTxReq>(round_trip(Message{m}));
  EXPECT_EQ(d.client, m.client);
  EXPECT_EQ(d.keys, m.keys);
  EXPECT_EQ(d.rdv, m.rdv);
  EXPECT_EQ(d.pessimistic, m.pessimistic);
  expect_honest_accounting(Message{m});
}

TEST(Codec, GetReplyRoundTrip) {
  GetReply m;
  m.client = 42;
  m.item = sample_item("codec:item", "payload");
  m.blocked_us = 1'234;
  m.op_id = 77;
  const auto d = std::get<GetReply>(round_trip(Message{m}));
  EXPECT_EQ(d.client, m.client);
  EXPECT_TRUE(items_equal(d.item, m.item));
  EXPECT_EQ(d.blocked_us, m.blocked_us);
  EXPECT_EQ(d.op_id, m.op_id);
  expect_honest_accounting(Message{m});
}

TEST(Codec, PutReplyRoundTrip) {
  PutReply m;
  m.client = 8;
  m.key = K("codec:putreply");
  m.ut = 555'000;
  m.sr = 1;
  m.blocked_us = 9;
  m.op_id = 12;
  const auto d = std::get<PutReply>(round_trip(Message{m}));
  EXPECT_EQ(d.client, m.client);
  EXPECT_EQ(d.key, m.key);
  EXPECT_EQ(d.ut, m.ut);
  EXPECT_EQ(d.sr, m.sr);
  EXPECT_EQ(d.blocked_us, m.blocked_us);
  EXPECT_EQ(d.op_id, m.op_id);
  expect_honest_accounting(Message{m});
}

TEST(Codec, RoTxReplyRoundTrip) {
  RoTxReply m;
  m.client = 13;
  m.items = {sample_item("codec:x", "1"), sample_item("codec:y", "22")};
  m.tv = vv3();
  m.blocked_us = 3;
  m.op_id = 6;
  const auto d = std::get<RoTxReply>(round_trip(Message{m}));
  EXPECT_EQ(d.client, m.client);
  ASSERT_EQ(d.items.size(), m.items.size());
  for (std::size_t i = 0; i < m.items.size(); ++i) {
    EXPECT_TRUE(items_equal(d.items[i], m.items[i]));
  }
  EXPECT_EQ(d.tv, m.tv);
  expect_honest_accounting(Message{m});
}

TEST(Codec, SessionClosedRoundTrip) {
  SessionClosed m;
  m.client = 21;
  m.reason = "partition suspected";
  const auto d = std::get<SessionClosed>(round_trip(Message{m}));
  EXPECT_EQ(d.client, m.client);
  EXPECT_EQ(d.reason, m.reason);
  expect_honest_accounting(Message{m});
}

TEST(Codec, ReplicateRoundTrip) {
  Replicate m;
  m.version.key = K("codec:repl");
  m.version.value = "replicated";
  m.version.sr = 2;
  m.version.ut = 31'337;
  m.version.dv = vv3();
  m.version.opt_origin = true;
  const auto d = std::get<Replicate>(round_trip(Message{m}));
  EXPECT_EQ(d.version.key, m.version.key);
  EXPECT_EQ(d.version.value, m.version.value);
  EXPECT_EQ(d.version.sr, m.version.sr);
  EXPECT_EQ(d.version.ut, m.version.ut);
  EXPECT_EQ(d.version.dv, m.version.dv);
  EXPECT_EQ(d.version.opt_origin, m.version.opt_origin);
  expect_honest_accounting(Message{m});
}

TEST(Codec, HeartbeatRoundTrip) {
  Heartbeat m;
  m.src_dc = 2;
  m.ts = 123'456'789;
  const auto d = std::get<Heartbeat>(round_trip(Message{m}));
  EXPECT_EQ(d.src_dc, m.src_dc);
  EXPECT_EQ(d.ts, m.ts);
  expect_honest_accounting(Message{m});
}

TEST(Codec, SliceReqRoundTrip) {
  SliceReq m;
  m.tx_id = 99;
  m.coordinator = NodeId{1, 3};
  m.keys = {K("codec:s1"), K("codec:s2")};
  m.tv = vv3();
  m.pessimistic = true;
  const auto d = std::get<SliceReq>(round_trip(Message{m}));
  EXPECT_EQ(d.tx_id, m.tx_id);
  EXPECT_EQ(d.coordinator, m.coordinator);
  EXPECT_EQ(d.keys, m.keys);
  EXPECT_EQ(d.tv, m.tv);
  EXPECT_EQ(d.pessimistic, m.pessimistic);
  expect_honest_accounting(Message{m});
}

TEST(Codec, SliceReplyRoundTrip) {
  SliceReply m;
  m.tx_id = 100;
  m.items = {sample_item("codec:sr", "v")};
  m.blocked_us = 17;
  m.aborted = true;
  const auto d = std::get<SliceReply>(round_trip(Message{m}));
  EXPECT_EQ(d.tx_id, m.tx_id);
  ASSERT_EQ(d.items.size(), 1u);
  EXPECT_TRUE(items_equal(d.items[0], m.items[0]));
  EXPECT_EQ(d.blocked_us, m.blocked_us);
  EXPECT_EQ(d.aborted, m.aborted);
  expect_honest_accounting(Message{m});
}

TEST(Codec, GcAndStabilizationRoundTrips) {
  GcReport rep;
  rep.from = NodeId{2, 5};
  rep.low_watermark = vv3();
  const auto drep = std::get<GcReport>(round_trip(Message{rep}));
  EXPECT_EQ(drep.from, rep.from);
  EXPECT_EQ(drep.low_watermark, rep.low_watermark);
  expect_honest_accounting(Message{rep});

  GcVector gv;
  gv.gv = vv3();
  EXPECT_EQ(std::get<GcVector>(round_trip(Message{gv})).gv, gv.gv);
  expect_honest_accounting(Message{gv});

  StabReport sr;
  sr.from = NodeId{0, 1};
  sr.vv = vv3();
  const auto dsr = std::get<StabReport>(round_trip(Message{sr}));
  EXPECT_EQ(dsr.from, sr.from);
  EXPECT_EQ(dsr.vv, sr.vv);
  expect_honest_accounting(Message{sr});

  GssBroadcast gss;
  gss.gss = vv3();
  EXPECT_EQ(std::get<GssBroadcast>(round_trip(Message{gss})).gss, gss.gss);
  expect_honest_accounting(Message{gss});
}

TEST(Codec, OverloadedRoundTrip) {
  Overloaded m;
  m.client = 4'242;
  m.retry_after_us = 25'000;
  m.op_id = 77;
  const auto d = std::get<Overloaded>(round_trip(Message{m}));
  EXPECT_EQ(d.client, m.client);
  EXPECT_EQ(d.retry_after_us, m.retry_after_us);
  EXPECT_EQ(d.op_id, m.op_id);
  expect_honest_accounting(Message{m});
}

TEST(Codec, EmptyAndDefaultMessagesRoundTrip) {
  // Default-constructed messages (empty vectors, empty strings, key id 0 =
  // the pre-interned empty key) must survive the wire too.
  const Message variants[] = {
      Message{GetReq{}},        Message{PutReq{}},     Message{RoTxReq{}},
      Message{GetReply{}},      Message{PutReply{}},   Message{RoTxReply{}},
      Message{SessionClosed{}}, Message{Replicate{}},  Message{Heartbeat{}},
      Message{SliceReq{}},      Message{SliceReply{}}, Message{GcReport{}},
      Message{GcVector{}},      Message{StabReport{}}, Message{GssBroadcast{}},
      Message{RecoveryReq{}},   Message{RecoveryDone{}}, Message{Overloaded{}},
  };
  for (const Message& m : variants) {
    const Message d = round_trip(m);
    EXPECT_EQ(d.index(), m.index()) << message_name(m);
    expect_honest_accounting(m);
  }
}

TEST(Codec, NodeHelloRoundTrip) {
  std::vector<std::uint8_t> buf;
  encode(NodeHello{NodeId{2, 7}}, buf);
  const DecodeResult res = decode_frame(buf.data(), buf.size());
  ASSERT_EQ(res.status, DecodeResult::Status::kOk) << res.error;
  const auto& hello = std::get<NodeHello>(res.frame);
  EXPECT_EQ(hello.node, (NodeId{2, 7}));
}

TEST(Codec, ClientHelloRoundTrip) {
  std::vector<std::uint8_t> buf;
  encode(ClientHello{12'345}, buf);
  const DecodeResult res = decode_frame(buf.data(), buf.size());
  ASSERT_EQ(res.status, DecodeResult::Status::kOk) << res.error;
  EXPECT_EQ(std::get<ClientHello>(res.frame).client, 12'345u);
  // Omitted preferred_part decodes as the explicit "no preference" marker —
  // hosts must not mistake it for partition 0.
  EXPECT_EQ(std::get<ClientHello>(res.frame).preferred_part,
            kNoPreferredPart);

  buf.clear();
  encode(ClientHello{99, 3}, buf);
  const DecodeResult pinned = decode_frame(buf.data(), buf.size());
  ASSERT_EQ(pinned.status, DecodeResult::Status::kOk) << pinned.error;
  EXPECT_EQ(std::get<ClientHello>(pinned.frame).client, 99u);
  EXPECT_EQ(std::get<ClientHello>(pinned.frame).preferred_part, 3u);
}

TEST(Codec, KeysAreReinternedByString) {
  // The receiving side must resolve the *string*, not trust the sender's id:
  // the same id maps to different strings in different processes. Simulate a
  // remote peer by checking the decoded id resolves to the original bytes.
  PutReq m;
  m.key = K("reintern:me");
  m.value = "v";
  std::vector<std::uint8_t> buf;
  encode(Message{m}, buf);
  const DecodeResult res = decode_frame(buf.data(), buf.size());
  ASSERT_EQ(res.status, DecodeResult::Status::kOk);
  const auto& d = std::get<PutReq>(std::get<Message>(res.frame));
  EXPECT_EQ(store::KeySpace::global().name(d.key), "reintern:me");
}

TEST(Codec, StreamOfFramesDecodesSequentially) {
  // Several frames back to back in one buffer — the transport's read path.
  std::vector<std::uint8_t> buf;
  GetReq get;
  get.key = K("stream:a");
  get.rdv = vv3();
  PutReq put;
  put.key = K("stream:b");
  put.value = "x";
  put.dv = vv3();
  encode(Message{get}, buf);
  encode(Message{put}, buf);
  encode(Message{Heartbeat{1, 99}}, buf);

  std::size_t off = 0;
  std::vector<std::size_t> seen;
  while (off < buf.size()) {
    const DecodeResult res = decode_frame(buf.data() + off, buf.size() - off);
    ASSERT_EQ(res.status, DecodeResult::Status::kOk) << res.error;
    seen.push_back(std::get<Message>(res.frame).index());
    off += res.consumed;
  }
  EXPECT_EQ(off, buf.size());
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 8}));
}

TEST(Codec, PartialFrameNeedsMore) {
  std::vector<std::uint8_t> buf;
  GetReply m;
  m.item = sample_item("partial", "value");
  encode(Message{m}, buf);
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    const DecodeResult res = decode_frame(buf.data(), cut);
    EXPECT_EQ(res.status, DecodeResult::Status::kNeedMore)
        << "prefix of " << cut << " bytes must not decode";
  }
}

TEST(Codec, RejectsWrongWireVersion) {
  std::vector<std::uint8_t> buf;
  encode(Message{Heartbeat{0, 1}}, buf);
  buf[1] = kWireVersion + 1;  // after the one-byte prefix
  const DecodeResult res = decode_frame(buf.data(), buf.size());
  EXPECT_EQ(res.status, DecodeResult::Status::kError);
  EXPECT_NE(res.error.find("version"), std::string::npos);
}

TEST(Codec, RejectsUnknownType) {
  std::vector<std::uint8_t> buf;
  encode(Message{Heartbeat{0, 1}}, buf);
  buf[2] = 180;  // not a WireType
  const DecodeResult res = decode_frame(buf.data(), buf.size());
  EXPECT_EQ(res.status, DecodeResult::Status::kError);
}

TEST(Codec, RejectsOversizedFrameLength) {
  // kMaxFrameBytes + 1 = 2^24 + 1: a minimal four-byte prefix, rejected
  // before any of the body arrives.
  const std::vector<std::uint8_t> buf = {0x81, 0x80, 0x80, 0x08};
  const DecodeResult res = decode_frame(buf.data(), buf.size());
  EXPECT_EQ(res.status, DecodeResult::Status::kError);
  EXPECT_NE(res.error.find("exceeds limit"), std::string::npos);
  EXPECT_EQ(cut_frame(buf.data(), buf.size()).status, FrameStatus::kError);
}

TEST(Codec, RejectsMalformedFramePrefix) {
  const std::vector<std::vector<std::uint8_t>> bad = {
      {0xff, 0xff, 0xff, 0xff},        // continuation on the 4th byte
      {0x80, 0x80, 0x80, 0x80, 0x01},  // over-long even with a 5th byte
      {0x80, 0x00},                    // 0 in two bytes: non-minimal
      {0x85, 0x80, 0x00},              // 5 in three bytes: non-minimal
      {0x81, 0x80, 0x80, 0x00},        // 1 in four bytes: non-minimal
  };
  for (const auto& buf : bad) {
    const DecodeResult res = decode_frame(buf.data(), buf.size());
    EXPECT_EQ(res.status, DecodeResult::Status::kError) << buf.size();
    EXPECT_NE(res.error.find("prefix"), std::string::npos) << res.error;
    EXPECT_EQ(cut_frame(buf.data(), buf.size()).status, FrameStatus::kError);
  }
  // An incomplete prefix is not an error: more bytes may complete it.
  const std::vector<std::uint8_t> partial = {0x80, 0x80, 0x80};
  EXPECT_EQ(cut_frame(partial.data(), partial.size()).status,
            FrameStatus::kNeedMore);
}

TEST(Codec, RejectsTrailingGarbageInsideFrame) {
  std::vector<std::uint8_t> body;
  encode(Message{Heartbeat{0, 1}}, body);
  // Grow the body by one byte and re-prefix it: a well-framed but overlong
  // body must be rejected, not silently accepted.
  body.erase(body.begin());  // the one-byte prefix
  body.push_back(0xab);
  const std::vector<std::uint8_t> buf = frame_with_body(body);
  const DecodeResult res = decode_frame(buf.data(), buf.size());
  EXPECT_EQ(res.status, DecodeResult::Status::kError);
  EXPECT_NE(res.error.find("trailing"), std::string::npos);
}

TEST(Codec, RejectsImplausibleKeyCount) {
  // Hand-build a RoTxReq frame whose key count claims 2^31 entries.
  std::vector<std::uint8_t> body;
  body.push_back(kWireVersion);
  body.push_back(static_cast<std::uint8_t>(WireType::kRoTxReq));
  for (int i = 0; i < 8; ++i) body.push_back(0);  // client
  body.push_back(0x00);                           // key count LE...
  body.push_back(0x00);
  body.push_back(0x00);
  body.push_back(0x80);  // ... = 2^31
  const std::vector<std::uint8_t> buf = frame_with_body(body);
  const DecodeResult res = decode_frame(buf.data(), buf.size());
  EXPECT_EQ(res.status, DecodeResult::Status::kError);
}

// ------------------------------------------------------------ Batch frames --

bool messages_equivalent(const Message& a, const Message& b) {
  // Structural equality via re-encoding: two messages that serialize to the
  // same bytes are the same message.
  std::vector<std::uint8_t> ba;
  std::vector<std::uint8_t> bb;
  encode(a, ba);
  encode(b, bb);
  return ba == bb;
}

TEST(Codec, BatchRoundTripsRoutedMessages) {
  BatchFrame batch;
  Replicate repl;
  repl.version.key = K("batch:repl");
  repl.version.value = "payload";
  repl.version.sr = 1;
  repl.version.ut = 42;
  repl.version.dv = vv3();
  batch.items.push_back(
      RoutedMessage{NodeId{0, 1}, NodeId{2, 1}, Message{repl}});
  batch.items.push_back(
      RoutedMessage{NodeId{0, 0}, NodeId{2, 0}, Message{Heartbeat{0, 99}}});
  StabReport sr;
  sr.from = NodeId{0, 1};
  sr.vv = vv3();
  batch.items.push_back(
      RoutedMessage{NodeId{0, 1}, NodeId{2, 300}, Message{sr}});

  std::vector<std::uint8_t> buf;
  const std::size_t body = encode(batch, buf);
  EXPECT_EQ(buf.size(), body + leb128_bytes(body));

  const DecodeResult res = decode_frame(buf.data(), buf.size());
  ASSERT_EQ(res.status, DecodeResult::Status::kOk) << res.error;
  EXPECT_EQ(res.consumed, buf.size());
  const auto& decoded = std::get<BatchFrame>(res.frame);
  ASSERT_EQ(decoded.items.size(), batch.items.size());
  for (std::size_t i = 0; i < batch.items.size(); ++i) {
    EXPECT_EQ(decoded.items[i].from, batch.items[i].from) << i;
    EXPECT_EQ(decoded.items[i].to, batch.items[i].to) << i;
    EXPECT_TRUE(
        messages_equivalent(decoded.items[i].msg, batch.items[i].msg))
        << i;
  }
}

TEST(Codec, BatchAccountingSplitsProtocolFromOverhead) {
  // The §V-charged bytes of a batch must equal the sum of the members'
  // wire_size() — batching adds framing, never protocol metadata — and the
  // overhead must be exactly the documented envelope model.
  BatchFrame batch;
  std::size_t protocol = 0;
  // Header: version + type + sender dc + receiver dc + count.
  std::size_t envelope = 1 + 1 + leb128_bytes(0) + leb128_bytes(1) +
                         leb128_bytes(5);
  for (int i = 0; i < 5; ++i) {
    Replicate repl;
    repl.version.key = K("batch:acct:" + std::to_string(i));
    repl.version.value = std::string(static_cast<std::size_t>(60 * i), 'v');
    repl.version.dv = vv3();
    const std::size_t charged = wire_size(Message{repl});
    protocol += charged;
    const PartitionId to_part = static_cast<PartitionId>(100 * i);
    batch.items.push_back(
        RoutedMessage{NodeId{0, 0}, NodeId{1, to_part}, Message{repl}});
    // Replicate carries no uncharged fields: its sub-body is exactly the
    // charged bytes, so the per-item envelope is partitions + sub-length.
    envelope += leb128_bytes(0) + leb128_bytes(to_part) + leb128_bytes(charged);
  }
  std::vector<std::uint8_t> buf;
  BatchEncodeStats stats;
  const std::size_t body = encode(batch, buf, &stats);
  EXPECT_EQ(body, protocol + envelope);
  EXPECT_EQ(stats.protocol_bytes, protocol);
  EXPECT_EQ(stats.overhead_bytes, envelope + leb128_bytes(body));
  EXPECT_EQ(buf.size(), stats.protocol_bytes + stats.overhead_bytes);
}

TEST(Codec, BatchWriterMatchesOneShotEncode) {
  BatchWriter w;
  EXPECT_TRUE(w.empty());
  BatchFrame batch;
  for (int i = 0; i < 3; ++i) {
    Heartbeat hb{static_cast<DcId>(i), 1'000 + i};
    batch.items.push_back(
        RoutedMessage{NodeId{0, 0}, NodeId{1, 1}, Message{hb}});
    w.add(NodeId{0, 0}, NodeId{1, 1}, Message{hb});
  }
  EXPECT_EQ(w.count(), 3u);
  std::vector<std::uint8_t> incremental;
  w.flush_to(incremental);
  EXPECT_TRUE(w.empty());  // reset for reuse
  std::vector<std::uint8_t> oneshot;
  encode(batch, oneshot);
  EXPECT_EQ(incremental, oneshot);
}

TEST(Codec, BatchRejectsEmptyNestedAndControlItems) {
  // Hand-build malformed batches: count 0, a nested batch, a NodeHello item.
  const auto header = [] {
    std::vector<std::uint8_t> body;
    body.push_back(kWireVersion);
    body.push_back(static_cast<std::uint8_t>(WireType::kBatch));
    body.push_back(0);  // sender dc
    body.push_back(1);  // receiver dc
    return body;
  };

  {  // count = 0
    auto body = header();
    body.push_back(0);
    const auto buf = frame_with_body(body);
    const DecodeResult res = decode_frame(buf.data(), buf.size());
    EXPECT_EQ(res.status, DecodeResult::Status::kError);
    EXPECT_NE(res.error.find("empty batch"), std::string::npos);
  }
  {  // one item whose sub-body is a control frame (NodeHello)
    auto body = header();
    body.push_back(1);              // count
    body.insert(body.end(), 2, 0);  // from/to partitions
    std::vector<std::uint8_t> sub;
    sub.push_back(kWireVersion);
    sub.push_back(static_cast<std::uint8_t>(WireType::kNodeHello));
    sub.insert(sub.end(), 8, 0);  // NodeId
    body.push_back(static_cast<std::uint8_t>(sub.size()));
    body.insert(body.end(), sub.begin(), sub.end());
    const auto buf = frame_with_body(body);
    const DecodeResult res = decode_frame(buf.data(), buf.size());
    EXPECT_EQ(res.status, DecodeResult::Status::kError);
    EXPECT_NE(res.error.find("not a protocol message"), std::string::npos);
  }
  {  // nested batch inside a batch
    auto body = header();
    body.push_back(1);
    body.insert(body.end(), 2, 0);
    std::vector<std::uint8_t> sub = header();  // a batch sub-body
    sub.push_back(0);
    body.push_back(static_cast<std::uint8_t>(sub.size()));
    body.insert(body.end(), sub.begin(), sub.end());
    const auto buf = frame_with_body(body);
    const DecodeResult res = decode_frame(buf.data(), buf.size());
    EXPECT_EQ(res.status, DecodeResult::Status::kError);
  }
  {  // a non-minimal partition varint inside an item envelope
    auto body = header();
    body.push_back(1);
    // from.part 0 in two bytes, then to.part 0.
    body.insert(body.end(), {0x80, 0x00, 0x00});
    std::vector<std::uint8_t> hb;
    encode(Message{Heartbeat{0, 1}}, hb);
    body.insert(body.end(), hb.begin(), hb.end());  // prefix = sub-length
    const auto buf = frame_with_body(body);
    const DecodeResult res = decode_frame(buf.data(), buf.size());
    EXPECT_EQ(res.status, DecodeResult::Status::kError);
    EXPECT_NE(res.error.find("varint"), std::string::npos);
  }
  {  // implausible item count
    auto body = header();
    body.push_back(0xff);
    body.push_back(0xff);
    body.push_back(0xff);
    body.push_back(0x7f);
    const auto buf = frame_with_body(body);
    const DecodeResult res = decode_frame(buf.data(), buf.size());
    EXPECT_EQ(res.status, DecodeResult::Status::kError);
    EXPECT_NE(res.error.find("implausible batch count"), std::string::npos);
  }
}

TEST(Codec, BatchTruncationNeedsMore) {
  BatchFrame batch;
  for (int i = 0; i < 3; ++i) {
    Replicate repl;
    repl.version.key = K("batch:trunc");
    repl.version.value = "vvvv";
    repl.version.dv = vv3();
    batch.items.push_back(
        RoutedMessage{NodeId{0, 0}, NodeId{1, 0}, Message{repl}});
  }
  std::vector<std::uint8_t> buf;
  encode(batch, buf);
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    const DecodeResult res = decode_frame(buf.data(), cut);
    EXPECT_EQ(res.status, DecodeResult::Status::kNeedMore)
        << "batch prefix of " << cut << " bytes must not decode";
  }
}

// ------------------------------------------------------ varint boundaries --

/// A PutReq whose encoded body is exactly `body` bytes (the value's length
/// field is fixed-width, so the body grows one byte per value byte).
Message put_with_body(std::size_t body) {
  PutReq m;
  m.client = 5;
  m.key = K("codec:boundary");
  m.dv = vv3();
  m.op_id = 1;
  std::vector<std::uint8_t> buf;
  const std::size_t base = encode(Message{m}, buf);
  m.value.assign(body - base, 'x');
  return Message{std::move(m)};
}

TEST(Codec, FrameLengthVarintBoundaries) {
  // Each boundary of the prefix's 7-bit groups, on both sides.
  const std::pair<std::size_t, std::size_t> cases[] = {
      {127, 1}, {128, 2}, {16'383, 2}, {16'384, 3}};
  for (const auto& [body, prefix] : cases) {
    const Message m = put_with_body(body);
    std::vector<std::uint8_t> buf;
    ASSERT_EQ(encode(m, buf), body);
    EXPECT_EQ(buf.size(), body + prefix) << body;
    const FrameCut cut = cut_frame(buf.data(), buf.size());
    ASSERT_EQ(cut.status, FrameStatus::kOk) << body;
    EXPECT_EQ(cut.prefix_bytes, prefix);
    EXPECT_EQ(cut.frame_bytes, prefix + body);
    const Message d = round_trip(m);
    EXPECT_EQ(std::get<PutReq>(d).value, std::get<PutReq>(m).value);
    expect_honest_accounting(m);
  }
}

TEST(Codec, BatchSubLengthVarintBoundaries) {
  // Sub-lengths on both sides of the one/two and two/three byte boundaries.
  for (const std::size_t sub : {127u, 128u, 16'383u, 16'384u}) {
    Replicate repl;
    repl.version.key = K("codec:sub");
    repl.version.dv = vv3();
    repl.version.value.assign(sub - wire_size(Message{repl}), 'y');
    ASSERT_EQ(wire_size(Message{repl}), sub);
    BatchFrame batch;
    batch.items.push_back(
        RoutedMessage{NodeId{1, 0}, NodeId{0, 1}, Message{repl}});
    batch.items.push_back(
        RoutedMessage{NodeId{1, 0}, NodeId{0, 0}, Message{Heartbeat{1, 5}}});
    std::vector<std::uint8_t> buf;
    BatchEncodeStats stats;
    encode(batch, buf, &stats);
    EXPECT_EQ(buf.size(), stats.protocol_bytes + stats.overhead_bytes);
    const DecodeResult res = decode_frame(buf.data(), buf.size());
    ASSERT_EQ(res.status, DecodeResult::Status::kOk) << res.error;
    const auto& decoded = std::get<BatchFrame>(res.frame);
    ASSERT_EQ(decoded.items.size(), 2u);
    EXPECT_EQ(decoded.items[0].to, (NodeId{0, 1}));
    EXPECT_EQ(std::get<Replicate>(decoded.items[0].msg).version.value,
              repl.version.value);
    EXPECT_EQ(std::get<Heartbeat>(decoded.items[1].msg).ts, 5);
  }
}

TEST(Codec, OpIdExtremesRoundTrip) {
  for (const std::uint64_t op_id :
       {std::uint64_t{0}, std::uint64_t{127}, std::uint64_t{128},
        std::numeric_limits<std::uint64_t>::max()}) {
    GetReq m;
    m.key = K("codec:opid");
    m.op_id = op_id;
    EXPECT_EQ(std::get<GetReq>(round_trip(Message{m})).op_id, op_id);
    expect_honest_accounting(Message{m});
    Overloaded o;
    o.op_id = op_id;
    EXPECT_EQ(std::get<Overloaded>(round_trip(Message{o})).op_id, op_id);
  }
  // UINT64_MAX takes all ten LEB128 bytes.
  GetReq m;
  m.op_id = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(framing_bytes(Message{m}), 10u);
}

TEST(Codec, BlockedUsExtremesRoundTrip) {
  for (const Duration blocked :
       {Duration{0}, Duration{-1}, Duration{-64}, Duration{64},
        std::numeric_limits<Duration>::min(),
        std::numeric_limits<Duration>::max()}) {
    GetReply g;
    g.item = sample_item("codec:blocked", "v");
    g.blocked_us = blocked;
    EXPECT_EQ(std::get<GetReply>(round_trip(Message{g})).blocked_us, blocked);
    expect_honest_accounting(Message{g});
    PutReply p;
    p.blocked_us = blocked;
    EXPECT_EQ(std::get<PutReply>(round_trip(Message{p})).blocked_us, blocked);
    SliceReply s;
    s.blocked_us = blocked;
    EXPECT_EQ(std::get<SliceReply>(round_trip(Message{s})).blocked_us,
              blocked);
    expect_honest_accounting(Message{s});
  }
  // 0 costs one byte; INT64_MIN maps to UINT64_MAX, ten bytes.
  EXPECT_EQ(zigzag_bytes(0), 1u);
  EXPECT_EQ(zigzag_bytes(std::numeric_limits<Duration>::min()), 10u);
}

TEST(Codec, MaxSizeFrameRoundTrips) {
  const Message m = put_with_body(kMaxFrameBytes);
  std::vector<std::uint8_t> buf;
  ASSERT_EQ(encode(m, buf), kMaxFrameBytes);
  EXPECT_EQ(buf.size(), kMaxFrameBytes + kMaxFramePrefixBytes);
  // Everything but the last byte is still "need more".
  EXPECT_EQ(decode_frame(buf.data(), buf.size() - 1).status,
            DecodeResult::Status::kNeedMore);
  const DecodeResult res = decode_frame(buf.data(), buf.size());
  ASSERT_EQ(res.status, DecodeResult::Status::kOk) << res.error;
  EXPECT_EQ(res.consumed, buf.size());
  EXPECT_EQ(std::get<PutReq>(std::get<Message>(res.frame)).value.size(),
            std::get<PutReq>(m).value.size());
}

// ----------------------------------------------------------- golden bytes --

std::string hex(const std::vector<std::uint8_t>& bytes) {
  std::string out;
  char b[3];
  for (const std::uint8_t v : bytes) {
    std::snprintf(b, sizeof(b), "%02x", v);
    out += b;
  }
  return out;
}

std::vector<std::uint8_t> unhex(const std::string& h) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < h.size(); i += 2) {
    out.push_back(
        static_cast<std::uint8_t>(std::stoi(h.substr(i, 2), nullptr, 16)));
  }
  return out;
}

VersionVector vv123() { return VersionVector{1, 2, 3}; }

store::Version golden_version() {
  store::Version v;
  v.key = K("k");
  v.value = "v";
  v.sr = 2;
  v.ut = 11;
  v.dv = vv123();
  v.opt_origin = true;
  return v;
}

ReadItem golden_item() {
  ReadItem it;
  it.key = K("k");
  it.found = true;
  it.value = "v";
  it.sr = 1;
  it.ut = 9;
  it.dv = vv123();
  it.fresher_versions = 2;
  it.unmerged_versions = 130;
  return it;
}

TEST(Codec, GoldenV6Frames) {
  // One pinned frame per message type. A layout change fails here loudly:
  // update the bytes only together with a kWireVersion bump.
  ASSERT_EQ(kWireVersion, 6);
  GetReq get{1, K("k"), vv123(), false, 300};
  PutReq put{2, K("k"), "v", vv123(), false, 1};
  RoTxReq rotx{3, {K("a"), K("b")}, VersionVector{}, true, 2};
  GetReply get_reply{1, golden_item(), -3, 300};
  PutReply put_reply{2, K("k"), 10, 0, 0, 1};
  RoTxReply rotx_reply{3, {golden_item()}, vv123(), 64, 2};
  SliceReq slice{5, NodeId{0, 1}, {K("a")}, vv123(), false};
  SliceReply slice_reply{5, {}, 1, false};
  const std::pair<Message, const char*> golden[] = {
      {Message{get},
       "290600010000000000000001006b030100000000000000020000000000000003"
       "0000000000000000ac02"},
      {Message{put},
       "2d0601020000000000000001006b010000007603010000000000000002000000"
       "0000000003000000000000000001"},
      {Message{rotx}, "170602030000000000000002000000010061010062000102"},
      {Message{get_reply},
       "3e0603010000000000000001006b010100000076010000000900000000000000"
       "0301000000000000000200000000000000030000000000000002820105ac02"},
      {Message{put_reply},
       "1b0604020000000000000001006b0a00000000000000000000000001"},
      {Message{rotx_reply},
       "5b060503000000000000000100000001006b0101000000760100000009000000"
       "0000000003010000000000000002000000000000000300000000000000028201"
       "03010000000000000002000000000000000300000000000000800102"},
      {Message{SessionClosed{4, "bye"}},
       "110606040000000000000003000000627965"},
      {Message{Replicate{golden_version()}},
       "30060701006b0100000076020000000b00000000000000030100000000000000"
       "0200000000000000030000000000000001"},
      {Message{Heartbeat{1, 2}}, "0e0608010000000200000000000000"},
      {Message{slice},
       "3306090500000000000000000000000100000001000000010061030100000000"
       "0000000200000000000000030000000000000000"},
      {Message{slice_reply}, "10060a0500000000000000000000000002"},
      {Message{GcReport{NodeId{1, 0}, vv123()}},
       "23060b0100000000000000030100000000000000020000000000000003000000"
       "00000000"},
      {Message{GcVector{vv123()}},
       "1b060c03010000000000000002000000000000000300000000000000"},
      {Message{StabReport{NodeId{2, 1}, vv123()}},
       "23060d0200000001000000030100000000000000020000000000000003000000"
       "00000000"},
      {Message{GssBroadcast{vv123()}},
       "1b060e03010000000000000002000000000000000300000000000000"},
      {Message{RecoveryReq{NodeId{0, 1}, vv123()}},
       "23060f0000000001000000030100000000000000020000000000000003000000"
       "00000000"},
      {Message{RecoveryVersion{golden_version()}},
       "30061001006b0100000076020000000b00000000000000030100000000000000"
       "0200000000000000030000000000000001"},
      {Message{RecoveryDone{NodeId{0, 1}, vv123()}},
       "2306110000000001000000030100000000000000020000000000000003000000"
       "00000000"},
      {Message{Overloaded{4, 1'000, 7}},
       "1306120400000000000000e80300000000000007"},
  };
  ASSERT_EQ(std::size(golden), std::variant_size_v<Message> - 1);
  for (const auto& [m, bytes] : golden) {
    std::vector<std::uint8_t> buf;
    encode(m, buf);
    EXPECT_EQ(hex(buf), bytes) << message_name(m);
    // The pinned bytes decode, and re-encode to themselves.
    const std::vector<std::uint8_t> pinned = unhex(bytes);
    const DecodeResult res = decode_frame(pinned.data(), pinned.size());
    ASSERT_EQ(res.status, DecodeResult::Status::kOk) << res.error;
    EXPECT_EQ(res.consumed, pinned.size());
    std::vector<std::uint8_t> again;
    encode(std::get<Message>(res.frame), again);
    EXPECT_EQ(again, pinned) << message_name(m);
  }

  BatchFrame batch;
  batch.items.push_back(
      RoutedMessage{NodeId{0, 1}, NodeId{2, 0}, Message{Heartbeat{0, 7}}});
  batch.items.push_back(
      RoutedMessage{NodeId{0, 0}, NodeId{2, 200}, Message{GcVector{vv123()}}});
  std::vector<std::uint8_t> buf;
  encode(batch, buf);
  const char* pinned_batch =
      "3506ca00020201000e060800000000070000000000000000c8011b060c030100"
      "00000000000002000000000000000300000000000000";
  EXPECT_EQ(hex(buf), pinned_batch);
  const std::vector<std::uint8_t> pinned = unhex(pinned_batch);
  const DecodeResult res = decode_frame(pinned.data(), pinned.size());
  ASSERT_EQ(res.status, DecodeResult::Status::kOk) << res.error;
  std::vector<std::uint8_t> again;
  encode(std::get<BatchFrame>(res.frame), again);
  EXPECT_EQ(again, pinned);
}

}  // namespace
}  // namespace pocc::proto
