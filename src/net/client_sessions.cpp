#include "net/client_sessions.hpp"

namespace pocc::net {

void ClientSessions::bind(ClientId client, ConnId conn) {
  slots_[client].conn = conn;
}

ClientSessions::Verdict ClientSessions::admit(
    ClientId client, ConnId conn, std::uint64_t op_id,
    std::vector<std::uint8_t>* resend) {
  Slot& s = slots_[client];
  if (op_id != 0 && op_id < s.op_id) {
    // Not a retry of the current op: do not let it steer the session's
    // replies either.
    ++stale_;
    return Verdict::kStale;
  }
  s.conn = conn;
  if (op_id == 0) return Verdict::kAdmit;
  if (op_id == s.op_id) {
    if (!s.reply.empty()) {
      ++deduped_;
      *resend = s.reply;
      return Verdict::kResend;
    }
    if (s.in_flight) {
      ++deduped_;
      return Verdict::kDuplicate;
    }
  }
  if (!s.reply.empty()) {
    --cached_replies_;
    cached_reply_bytes_ -= s.reply.capacity();
    // Swap with an empty vector: `s.reply = {}` would pick
    // operator=(initializer_list), a clear() that keeps the capacity.
    std::vector<std::uint8_t>().swap(s.reply);
  }
  s.op_id = op_id;
  s.in_flight = true;
  return Verdict::kAdmit;
}

void ClientSessions::refuse(ClientId client, std::uint64_t op_id) {
  auto it = slots_.find(client);
  if (it != slots_.end() && it->second.op_id == op_id) {
    it->second.in_flight = false;
  }
}

ConnId ClientSessions::complete(ClientId client, std::uint64_t op_id,
                                const std::vector<std::uint8_t>& frame) {
  auto it = slots_.find(client);
  if (it == slots_.end()) return kInvalidConn;
  Slot& s = it->second;
  if (s.op_id == op_id && s.reply.empty()) {
    // Cached even when the connection is gone: the client retries the op
    // after reconnecting. A late reply to an op the session already moved
    // past is only forwarded.
    s.in_flight = false;
    s.reply = frame;
    ++cached_replies_;
    cached_reply_bytes_ += s.reply.capacity();
  }
  return s.conn;
}

ConnId ClientSessions::close(ClientId client) {
  auto it = slots_.find(client);
  if (it == slots_.end()) return kInvalidConn;
  it->second.in_flight = false;
  return it->second.conn;
}

ConnId ClientSessions::conn_of(ClientId client) const {
  auto it = slots_.find(client);
  return it == slots_.end() ? kInvalidConn : it->second.conn;
}

void ClientSessions::migrate(ConnId from, ConnId to) {
  for (auto& [client, s] : slots_) {
    if (s.conn == from) s.conn = to;
  }
}

void ClientSessions::disconnect(ConnId conn) {
  for (auto& [client, s] : slots_) {
    if (s.conn == conn) s.conn = kInvalidConn;
  }
}

ClientSessions::Stats ClientSessions::stats() const {
  return Stats{slots_.size(), cached_replies_, cached_reply_bytes_, deduped_,
               stale_};
}

}  // namespace pocc::net
