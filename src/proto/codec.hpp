// Versioned, length-prefixed binary wire codec for proto::Message.
//
// This is the process-boundary twin of the in-memory message structs: the TCP
// deployment (net/tcp_transport.hpp, poccd, pocc_loadgen) exchanges exactly
// these frames. Layout of one frame (v6):
//
//   varint  body length (minimal LEB128, 1-4 bytes, <= kMaxFrameBytes;
//           transport framing, never charged)
//   u8      wire version (kWireVersion; receivers reject other versions)
//   u8      message type (stable on-the-wire ids, see WireType)
//   ...     message payload, field by field: §V-charged fields fixed-width
//           little-endian (their sizes are what wire_size() models), the
//           uncharged transport fields compact — op_id as a varint,
//           blocked_us as a zigzag varint, the ReadItem measurement
//           counters as varints
//
// A Batch body (WireType::kBatch) is
//
//   u8 version | u8 type | varint sender dc | varint receiver dc |
//   varint count | count x (varint from.part | varint to.part |
//                           varint sub-length | sub-body)
//
// where each sub-body is a complete (version + type + payload) protocol
// message. A link joins two single-DC processes, so both DCs ride the
// header once and each item carries only its partitions.
//
// Every varint is minimal-form: the decoder rejects over-long and
// non-minimal encodings, so a decoded frame re-encodes to the same bytes.
//
// Keys cross the wire as their original strings: KeyIds are a *per-process*
// interning optimization and are meaningless to a remote peer. encode() reads
// the key bytes out of the sender's KeySpace; decode() re-interns them into
// the receiver's, so engines on both sides keep operating on dense 4-byte
// ids while the wire carries — and wire_size() charges — full key strings
// (docs/DESIGN.md, "Wire format").
//
// Byte-accounting honesty: encode() tallies the bytes belonging to protocol
// metadata (everything except op_id, the measurement-only fields and the
// frame length prefix) and asserts that the tally equals wire_size(m). The
// §V accounting model and the real wire format therefore cannot drift apart.
//
// decode_frame() is defensive: truncated, corrupted or absurd input yields a
// DecodeResult error (never a crash or an allocation bomb) — it is fuzzed by
// tests/codec_fuzz_test.cpp.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/types.hpp"
#include "proto/messages.hpp"

namespace pocc::proto {

/// Bumped on any incompatible layout change; receivers reject mismatches.
/// v2: Batch frames (coalesced server-to-server traffic with explicit
/// per-message (from, to) routing envelopes — multi-partition hosting).
/// v3: crash-recovery handshake messages (RecoveryReq / RecoveryVersion /
/// RecoveryDone — durable WAL deployments, src/wal/).
/// v4: Overloaded replies (explicit admission-control refusal instead of
/// silent inbox growth — chaos-hardened deployments, net/tcp_node_host.cpp).
/// v5: ClientHello carries the client's preferred partition so the sharded
/// server can pin the connection to the event loop owning that partition's
/// worker (net/tcp_transport.hpp, "pinning").
/// v6: compact transport framing — varint frame length prefix, Batch
/// headers carrying the sender/receiver DC once with varint partitions and
/// sub-lengths per item, varint op_id and measurement counters, zigzag
/// blocked_us. Every §V-charged field is unchanged.
inline constexpr std::uint8_t kWireVersion = 6;

/// Upper bound on one frame's body; larger lengths are treated as corruption.
inline constexpr std::size_t kMaxFrameBytes = 16u << 20;

/// Longest frame length prefix: kMaxFrameBytes needs 25 bits, i.e. four
/// 7-bit LEB128 groups.
inline constexpr std::size_t kMaxFramePrefixBytes = 4;

/// Outcome of cutting (or decoding) the frame at the front of a stream.
enum class FrameStatus {
  kOk,        // a whole frame is buffered
  kNeedMore,  // the buffer holds only part of a frame; feed more bytes
  kError,     // corrupted input; the connection is dead
};

/// Where the frame at the front of a byte stream ends, judged from its
/// length prefix alone. The one frame cutter of the deployment: the decoder
/// and frame-forwarding tools (pocc_chaosproxy) both use it.
struct FrameCut {
  FrameStatus status = FrameStatus::kNeedMore;
  std::size_t prefix_bytes = 0;  // kOk: bytes of the length prefix
  std::size_t frame_bytes = 0;   // kOk: prefix + body
  const char* error = nullptr;   // kError: why
};

/// Read the length prefix at the front of [data, data+len). kNeedMore while
/// the prefix or the body is incomplete; kError for an over-long prefix (a
/// continuation bit on its 4th byte), a non-minimal one, or a body length
/// above kMaxFrameBytes.
FrameCut cut_frame(const std::uint8_t* data, std::size_t len);

/// Stable on-the-wire message-type ids. Values 0..18 deliberately mirror the
/// Message variant indices (static_asserted in codec.cpp); the 200+ range is
/// transport control traffic that never reaches a protocol engine.
enum class WireType : std::uint8_t {
  kGetReq = 0,
  kPutReq = 1,
  kRoTxReq = 2,
  kGetReply = 3,
  kPutReply = 4,
  kRoTxReply = 5,
  kSessionClosed = 6,
  kReplicate = 7,
  kHeartbeat = 8,
  kSliceReq = 9,
  kSliceReply = 10,
  kGcReport = 11,
  kGcVector = 12,
  kStabReport = 13,
  kGssBroadcast = 14,
  kRecoveryReq = 15,
  kRecoveryVersion = 16,
  kRecoveryDone = 17,
  kOverloaded = 18,
  kNodeHello = 200,
  kClientHello = 201,
  kBatch = 202,
};

/// Highest wire id that is a protocol message (legal inside a Batch frame).
inline constexpr std::uint8_t kMaxProtocolWireType =
    static_cast<std::uint8_t>(WireType::kOverloaded);

/// First frame on a server-to-server connection: who is dialing in. Lets the
/// receiver attribute subsequent frames on the connection to a NodeId.
struct NodeHello {
  NodeId node;
};

/// preferred_part value meaning "no pinning preference".
inline constexpr PartitionId kNoPreferredPart = 0xffff'ffffu;

/// Optional first frame on a client connection (the server also learns
/// client -> connection bindings lazily from request frames). `client` 0
/// means the frame only pins: the connection pool greets with the partition
/// it dialed the connection for, and the server migrates the socket to the
/// event loop owning that partition's worker. (v5)
struct ClientHello {
  ClientId client = 0;
  PartitionId preferred_part = kNoPreferredPart;
};

/// One protocol message with its routing envelope, as carried inside a Batch
/// frame. Multi-partition hosts need the explicit (from, to) pair: a link
/// connects two *processes*, each hosting several (dc, partition) nodes, so
/// connection identity alone no longer names the endpoints. Every item of
/// one batch shares from.dc and to.dc (the wire carries them once).
struct RoutedMessage {
  NodeId from;
  NodeId to;
  Message msg;
};

/// Coalesced server-to-server traffic: every message a process accumulated
/// for one peer link since the last flush rides a single wire frame (Okapi /
/// Cure-style interval batching — amortizes the per-frame cost of update
/// propagation and stabilization traffic). Only protocol Messages may ride in
/// a batch; control frames and nested batches are rejected by the decoder.
struct BatchFrame {
  std::vector<RoutedMessage> items;
};

/// Everything one frame can carry.
using Frame = std::variant<Message, NodeHello, ClientHello, BatchFrame>;

/// Append one frame (length prefix + body) carrying `m` to `out`. Returns the
/// body size in bytes. Asserts that the charged protocol bytes equal
/// wire_size(m). RouteProbe (test-only) is not encodable and asserts.
std::size_t encode(const Message& m, std::vector<std::uint8_t>& out);

std::size_t encode(const NodeHello& h, std::vector<std::uint8_t>& out);
std::size_t encode(const ClientHello& h, std::vector<std::uint8_t>& out);

/// Byte split of one encoded batch: `protocol` is what wire_size() charges
/// across the contained messages (§V accounting, identical to sending each
/// message as its own frame); `overhead` is every other byte of the frame as
/// written — the routing envelopes, sub-lengths, the batch header, the
/// frame length prefix and any uncharged fields inside the messages — so
/// protocol + overhead is exactly the frame size. Tracked separately so the
/// deployment can report how much framing the coalescing policy costs/saves
/// (docs/DESIGN.md deviation 8).
struct BatchEncodeStats {
  std::size_t protocol_bytes = 0;
  std::size_t overhead_bytes = 0;
};

/// Append one Batch frame carrying `batch` to `out`. Returns the body size.
/// Asserts the batch is non-empty, its items share one sender DC and one
/// receiver DC, and it contains no RouteProbe. `stats`, when given, receives
/// the protocol/overhead byte split of the whole frame.
std::size_t encode(const BatchFrame& batch, std::vector<std::uint8_t>& out,
                   BatchEncodeStats* stats = nullptr);

/// Incremental Batch encoder for the per-link coalescing path: each add()
/// serializes the message straight into the staged frame (no second copy at
/// flush time), so the flush policy can bound batches by *exact* wire bytes.
/// flush_to() completes the frame and resets the writer for the next batch.
class BatchWriter {
 public:
  BatchWriter();

  /// Encode one routed message into the staged batch. Asserts that `from`
  /// and `to` are in the same DCs as the batch's first item.
  void add(NodeId from, NodeId to, const Message& m);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  /// Staged body size so far (what the wire frame's body will be).
  [[nodiscard]] std::size_t body_bytes() const;

  /// Append the completed frame (length prefix + header + staged items) to
  /// `out` and reset to empty; `stats`, when given, receives the frame's
  /// protocol/overhead split. Returns the body size. Asserts at least one
  /// message was staged.
  std::size_t flush_to(std::vector<std::uint8_t>& out,
                       BatchEncodeStats* stats = nullptr);

 private:
  std::vector<std::uint8_t> items_;  // staged item envelopes + sub-bodies
  std::size_t count_ = 0;
  std::size_t protocol_bytes_ = 0;
  DcId from_dc_ = 0;
  DcId to_dc_ = 0;
};

struct DecodeResult {
  /// kOk: `frame` holds the decoded frame, `consumed` bytes eaten;
  /// kError: `error` explains.
  using Status = FrameStatus;
  Status status = Status::kNeedMore;
  Frame frame;
  std::size_t consumed = 0;  // bytes consumed from the input (prefix + body)
  std::string error;
};

/// Decode one frame from the front of [data, data+len). Key strings are
/// re-interned into the process-global KeySpace.
DecodeResult decode_frame(const std::uint8_t* data, std::size_t len);

}  // namespace pocc::proto
