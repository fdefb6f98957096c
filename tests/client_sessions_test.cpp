// The exactly-once session table (net::ClientSessions), socket-free: one
// slot per client session, and each admission rule in isolation — resend of
// a completed op, swallow of an in-flight duplicate, stale ops never
// admitted, refused ops re-admitted, HA-POCC SessionClosed, and a
// disconnect/reconnect that keeps the cached reply.
#include "net/client_sessions.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace pocc::net {
namespace {

using Verdict = ClientSessions::Verdict;

constexpr ClientId kClient = 7;
constexpr ConnId kConn = 100;

std::vector<std::uint8_t> reply_frame(std::uint8_t tag, std::size_t size) {
  return std::vector<std::uint8_t>(size, tag);
}

TEST(ClientSessions, FreshOpsAreAdmittedAndBindTheConnection) {
  ClientSessions s;
  std::vector<std::uint8_t> resend;
  EXPECT_EQ(s.admit(kClient, kConn, 1, &resend), Verdict::kAdmit);
  EXPECT_EQ(s.conn_of(kClient), kConn);
  EXPECT_EQ(s.conn_of(kClient + 1), kInvalidConn);
  EXPECT_EQ(s.stats().sessions, 1u);
  EXPECT_EQ(s.stats().cached_replies, 0u);
}

TEST(ClientSessions, RetryOfCompletedOpResendsTheCachedReply) {
  ClientSessions s;
  std::vector<std::uint8_t> resend;
  ASSERT_EQ(s.admit(kClient, kConn, 1, &resend), Verdict::kAdmit);
  const auto frame = reply_frame(0xAB, 40);
  EXPECT_EQ(s.complete(kClient, 1, frame), kConn);
  EXPECT_EQ(s.stats().cached_replies, 1u);
  EXPECT_EQ(s.stats().cached_reply_bytes, 40u);

  EXPECT_EQ(s.admit(kClient, kConn, 1, &resend), Verdict::kResend);
  EXPECT_EQ(resend, frame);
  EXPECT_EQ(s.stats().deduped, 1u);
  EXPECT_EQ(s.stats().stale, 0u);
}

TEST(ClientSessions, DuplicateOfInFlightOpIsSwallowed) {
  ClientSessions s;
  std::vector<std::uint8_t> resend;
  ASSERT_EQ(s.admit(kClient, kConn, 1, &resend), Verdict::kAdmit);
  EXPECT_EQ(s.admit(kClient, kConn, 1, &resend), Verdict::kDuplicate);
  EXPECT_TRUE(resend.empty());
  EXPECT_EQ(s.stats().deduped, 1u);
  // The original's reply still completes the op and is cached.
  s.complete(kClient, 1, reply_frame(1, 8));
  EXPECT_EQ(s.admit(kClient, kConn, 1, &resend), Verdict::kResend);
}

TEST(ClientSessions, StaleOpIsNeverAdmitted) {
  ClientSessions s;
  std::vector<std::uint8_t> resend;
  ASSERT_EQ(s.admit(kClient, kConn, 1, &resend), Verdict::kAdmit);
  s.complete(kClient, 1, reply_frame(1, 8));
  ASSERT_EQ(s.admit(kClient, kConn, 2, &resend), Verdict::kAdmit);
  s.complete(kClient, 2, reply_frame(2, 8));
  ASSERT_EQ(s.admit(kClient, kConn, 3, &resend), Verdict::kAdmit);

  // Op 1 fell out of the slot: it is swallowed, not re-run — however far
  // behind the session it is, and whatever state op 3 is in.
  EXPECT_EQ(s.admit(kClient, kConn, 1, &resend), Verdict::kStale);
  s.complete(kClient, 3, reply_frame(3, 8));
  EXPECT_EQ(s.admit(kClient, kConn, 1, &resend), Verdict::kStale);
  EXPECT_EQ(s.admit(kClient, kConn, 2, &resend), Verdict::kStale);
  EXPECT_TRUE(resend.empty());
  EXPECT_EQ(s.stats().stale, 3u);
  EXPECT_EQ(s.stats().deduped, 0u);

  // A stale frame arriving over another connection does not steal the
  // session's replies.
  EXPECT_EQ(s.admit(kClient, kConn + 1, 2, &resend), Verdict::kStale);
  EXPECT_EQ(s.conn_of(kClient), kConn);
}

TEST(ClientSessions, LateReplyToAPastOpIsForwardedNotCached) {
  ClientSessions s;
  std::vector<std::uint8_t> resend;
  ASSERT_EQ(s.admit(kClient, kConn, 1, &resend), Verdict::kAdmit);
  // The client gave up on op 1 (deadline) and moved on.
  ASSERT_EQ(s.admit(kClient, kConn, 2, &resend), Verdict::kAdmit);
  EXPECT_EQ(s.complete(kClient, 1, reply_frame(1, 8)), kConn);
  EXPECT_EQ(s.stats().cached_replies, 0u);
  // Op 2 is still in flight.
  EXPECT_EQ(s.admit(kClient, kConn, 2, &resend), Verdict::kDuplicate);
}

TEST(ClientSessions, RefusedOpIsAdmittedFreshOnRetry) {
  ClientSessions s;
  std::vector<std::uint8_t> resend;
  ASSERT_EQ(s.admit(kClient, kConn, 4, &resend), Verdict::kAdmit);
  s.refuse(kClient, 4);  // Overloaded: the op never ran
  EXPECT_EQ(s.admit(kClient, kConn, 4, &resend), Verdict::kAdmit);
  EXPECT_EQ(s.admit(kClient, kConn, 4, &resend), Verdict::kDuplicate);
  // A refusal naming another op leaves the slot alone.
  s.refuse(kClient, 3);
  EXPECT_EQ(s.admit(kClient, kConn, 4, &resend), Verdict::kDuplicate);
}

TEST(ClientSessions, SessionClosedResolvesTheOpInFlight) {
  ClientSessions s;
  std::vector<std::uint8_t> resend;
  ASSERT_EQ(s.admit(kClient, kConn, 5, &resend), Verdict::kAdmit);
  EXPECT_EQ(s.close(kClient), kConn);
  EXPECT_EQ(s.stats().cached_replies, 0u);
  // Nothing is in flight any more: a request with that op_id runs.
  EXPECT_EQ(s.admit(kClient, kConn, 5, &resend), Verdict::kAdmit);
  EXPECT_EQ(s.admit(kClient, kConn, 6, &resend), Verdict::kAdmit);
  EXPECT_EQ(s.close(kClient + 1), kInvalidConn);
}

TEST(ClientSessions, DisconnectKeepsTheReplyForARetryAfterReconnect) {
  ClientSessions s;
  std::vector<std::uint8_t> resend;
  ASSERT_EQ(s.admit(kClient, kConn, 9, &resend), Verdict::kAdmit);
  s.disconnect(kConn);
  EXPECT_EQ(s.conn_of(kClient), kInvalidConn);
  // The reply lands while the client is away: cached, sent nowhere.
  const auto frame = reply_frame(9, 24);
  EXPECT_EQ(s.complete(kClient, 9, frame), kInvalidConn);
  EXPECT_EQ(s.stats().sessions, 1u);

  // The retry over the new connection gets the reply and rebinds.
  EXPECT_EQ(s.admit(kClient, kConn + 1, 9, &resend), Verdict::kResend);
  EXPECT_EQ(resend, frame);
  EXPECT_EQ(s.conn_of(kClient), kConn + 1);
}

TEST(ClientSessions, MigrationRewritesTheConnection) {
  ClientSessions s;
  s.bind(kClient, kConn);
  s.bind(kClient + 1, kConn + 5);
  s.migrate(kConn, kConn + 1);
  EXPECT_EQ(s.conn_of(kClient), kConn + 1);
  EXPECT_EQ(s.conn_of(kClient + 1), kConn + 5);
}

TEST(ClientSessions, NextOpFreesThePreviousReply) {
  ClientSessions s;
  std::vector<std::uint8_t> resend;
  for (ClientId c = 1; c <= 3; ++c) {
    ASSERT_EQ(s.admit(c, kConn, 1, &resend), Verdict::kAdmit);
    s.complete(c, 1, reply_frame(1, 512));
  }
  EXPECT_EQ(s.stats().cached_replies, 3u);
  EXPECT_EQ(s.stats().cached_reply_bytes, 3u * 512);
  ASSERT_EQ(s.admit(2, kConn, 2, &resend), Verdict::kAdmit);
  EXPECT_EQ(s.stats().cached_replies, 2u);
  EXPECT_EQ(s.stats().cached_reply_bytes, 2u * 512);
  s.complete(2, 2, reply_frame(2, 30));
  EXPECT_EQ(s.stats().cached_replies, 3u);
  EXPECT_EQ(s.stats().cached_reply_bytes, 2u * 512 + 30);
  EXPECT_EQ(s.stats().sessions, 3u);
}

TEST(ClientSessions, SmallerReplyDoesNotKeepTheLargerFramesCapacity) {
  // A GET reply followed by the next op's PutReply: the slot must hold the
  // 37 B it caches, not the 600 B buffer underneath. cached_reply_bytes
  // counts capacity, so it reads what the slot really holds.
  ClientSessions s;
  std::vector<std::uint8_t> resend;
  ASSERT_EQ(s.admit(kClient, kConn, 1, &resend), Verdict::kAdmit);
  s.complete(kClient, 1, reply_frame(1, 600));
  EXPECT_EQ(s.stats().cached_reply_bytes, 600u);
  ASSERT_EQ(s.admit(kClient, kConn, 2, &resend), Verdict::kAdmit);
  EXPECT_EQ(s.stats().cached_reply_bytes, 0u);
  const auto put_reply = reply_frame(2, 37);
  s.complete(kClient, 2, put_reply);
  EXPECT_EQ(s.stats().cached_replies, 1u);
  EXPECT_EQ(s.stats().cached_reply_bytes, 37u);
  ASSERT_EQ(s.admit(kClient, kConn, 2, &resend), Verdict::kResend);
  EXPECT_EQ(resend, put_reply);
}

TEST(ClientSessions, OpIdZeroCarriesNoIdentity) {
  ClientSessions s;
  std::vector<std::uint8_t> resend;
  EXPECT_EQ(s.admit(kClient, kConn, 0, &resend), Verdict::kAdmit);
  EXPECT_EQ(s.admit(kClient, kConn, 0, &resend), Verdict::kAdmit);
  ASSERT_EQ(s.admit(kClient, kConn, 3, &resend), Verdict::kAdmit);
  EXPECT_EQ(s.admit(kClient, kConn, 0, &resend), Verdict::kAdmit);
  EXPECT_EQ(s.stats().deduped, 0u);
  EXPECT_EQ(s.stats().stale, 0u);
}

}  // namespace
}  // namespace pocc::net
