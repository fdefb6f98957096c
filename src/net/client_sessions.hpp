// Exactly-once admission of client requests: ONE slot per client session.
//
// A client session is serial (net::TcpSession: op_ids only grow and one op
// is in flight at a time), so the pair (session, latest op_id) summarises
// every earlier op of the session — the per-origin "dot" of Dotted Version
// Vectors. A single slot {conn, op_id, in_flight, reply} therefore replaces
// any window of remembered replies. Admission of request `op_id`:
//
//   * op_id == slot.op_id, reply cached  -> resend the cached reply frame;
//   * op_id == slot.op_id, op in flight  -> swallow it (the reply is coming);
//   * op_id <  slot.op_id                -> a stale request from the
//                                           session's past: swallow it and
//                                           never admit it;
//   * otherwise                          -> admit; the previous reply is
//                                           freed.
//
// The first two are retries (counted as deduped); the third would mean the
// serial-session assumption broke — a duplicated frame overtaken by a later
// op, or a client pipelining one session — and is counted apart (stale).
//
// The slot also binds the session to the connection its replies go back
// over. A disconnect unbinds it but keeps the slot: the client may retry the
// op after it reconnects.
//
// Known limit: nothing on the wire says a session ended, so a slot outlives
// its session — a host keeps one small record plus the last reply frame per
// session it ever served. sessions / cached_reply_bytes in stats() (the
// pocc_host_client_sessions / pocc_host_cached_reply_bytes gauges) make
// that residual growth visible. cached_reply_bytes counts the capacity the
// slots hold, not the frames' sizes, so a slot that kept an earlier, larger
// frame's buffer shows up there.
//
// Pitfall: `reply = {}` on a std::vector selects operator=(initializer_list),
// which clears but keeps the capacity. Freeing a cached frame swaps it with
// an empty vector instead.
//
// Not thread-safe: net::TcpNodeHost calls it under its own mutex.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "net/tcp_transport.hpp"

namespace pocc::net {

class ClientSessions {
 public:
  enum class Verdict : std::uint8_t {
    kAdmit,      // run the op
    kResend,     // completed already: resend the cached reply
    kDuplicate,  // retry of the op in flight: swallow
    kStale,      // older than the session's latest op: swallow
  };

  struct Stats {
    std::size_t sessions = 0;            // slots held
    std::size_t cached_replies = 0;      // slots holding a reply frame
    std::size_t cached_reply_bytes = 0;  // capacity held by those frames
    std::uint64_t deduped = 0;           // kResend + kDuplicate verdicts
    std::uint64_t stale = 0;             // kStale verdicts
  };

  /// Bind `client`'s replies to `conn` (creating its slot if needed).
  void bind(ClientId client, ConnId conn);

  /// Admission of request `op_id` from `client`, arrived over `conn`. Binds
  /// the session to `conn` unless the request is stale. On kResend,
  /// `*resend` receives a copy of the cached reply frame. op_id 0 carries
  /// no exactly-once identity and is always admitted.
  Verdict admit(ClientId client, ConnId conn, std::uint64_t op_id,
                std::vector<std::uint8_t>* resend);

  /// The admitted op was refused (Overloaded) before it ran: a retry of the
  /// same op_id is admitted fresh.
  void refuse(ClientId client, std::uint64_t op_id);

  /// The op resolved with reply `frame`. The frame is cached when `op_id` is
  /// still the session's latest op. Returns the connection to send the
  /// reply over (kInvalidConn when the session has none).
  ConnId complete(ClientId client, std::uint64_t op_id,
                  const std::vector<std::uint8_t>& frame);

  /// HA-POCC SessionClosed: the op in flight resolves with no reply to
  /// cache. Returns the connection to send the SessionClosed over.
  ConnId close(ClientId client);

  /// The connection `client`'s replies go over (kInvalidConn if none).
  [[nodiscard]] ConnId conn_of(ClientId client) const;

  /// The transport re-homed a socket: `from` is now called `to`.
  void migrate(ConnId from, ConnId to);
  /// `conn` is gone: unbind every session on it, keeping the slots.
  void disconnect(ConnId conn);

  [[nodiscard]] Stats stats() const;

 private:
  struct Slot {
    ConnId conn = kInvalidConn;
    std::uint64_t op_id = 0;
    bool in_flight = false;
    std::vector<std::uint8_t> reply;  // empty = none cached
  };

  std::unordered_map<ClientId, Slot> slots_;
  std::size_t cached_replies_ = 0;
  std::size_t cached_reply_bytes_ = 0;
  std::uint64_t deduped_ = 0;
  std::uint64_t stale_ = 0;
};

}  // namespace pocc::net
