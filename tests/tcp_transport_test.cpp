// TcpTransport: framing across real sockets, greeting-before-traffic,
// reconnect with FIFO-preserving buffering, and stats accounting.
#include "net/tcp_transport.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "store/key_space.hpp"

namespace pocc::net {
namespace {

using namespace std::chrono_literals;

std::vector<std::uint8_t> heartbeat_frame(DcId dc, Timestamp ts) {
  std::vector<std::uint8_t> buf;
  proto::encode(proto::Message{proto::Heartbeat{dc, ts}}, buf);
  return buf;
}

/// Collects decoded frames thread-safely.
struct FrameSink {
  std::mutex mu;
  std::vector<proto::Frame> frames;
  std::atomic<int> connects{0};
  std::atomic<int> disconnects{0};

  TcpTransport::Callbacks callbacks() {
    return TcpTransport::Callbacks{
        [this](ConnId, proto::Frame f) {
          std::lock_guard lk(mu);
          frames.push_back(std::move(f));
        },
        [this](ConnId) { ++connects; },
        [this](ConnId) { ++disconnects; },
        nullptr,
        nullptr,
        nullptr,
    };
  }

  std::size_t size() {
    std::lock_guard lk(mu);
    return frames.size();
  }

  std::optional<proto::Message> message_at(std::size_t i) {
    std::lock_guard lk(mu);
    if (i >= frames.size()) return std::nullopt;
    if (auto* m = std::get_if<proto::Message>(&frames[i])) return *m;
    return std::nullopt;
  }

  bool wait_for_frames(std::size_t n, Duration timeout_us = 5'000'000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(timeout_us);
    while (std::chrono::steady_clock::now() < deadline) {
      if (size() >= n) return true;
      std::this_thread::sleep_for(1ms);
    }
    return size() >= n;
  }
};

TEST(TcpTransport, FramesCrossASocketInOrder) {
  FrameSink server_sink;
  TcpTransport server(server_sink.callbacks(), TcpTransport::Options{});
  const std::uint16_t port = server.listen(0);
  ASSERT_GT(port, 0);
  server.start();

  FrameSink client_sink;
  TcpTransport client(client_sink.callbacks(), TcpTransport::Options{});
  const ConnId conn = client.connect_peer("127.0.0.1", port);
  client.start();

  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(client.send(conn, heartbeat_frame(1, 1'000 + i)));
  }
  ASSERT_TRUE(server_sink.wait_for_frames(50));
  for (int i = 0; i < 50; ++i) {
    const auto m = server_sink.message_at(i);
    ASSERT_TRUE(m.has_value());
    const auto& hb = std::get<proto::Heartbeat>(*m);
    EXPECT_EQ(hb.ts, 1'000 + i) << "FIFO order violated at " << i;
  }
  EXPECT_EQ(server.stats().frames_in, 50u);
  EXPECT_EQ(client.stats().frames_out, 50u);
  client.stop();
  server.stop();
}

/// Blocking loopback socket with Nagle off, so each write leaves as its own
/// segment. -1 on failure.
int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const ssize_t k = ::send(fd, p, n, MSG_NOSIGNAL);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

TEST(TcpTransport, FrameStreamSplitAtEveryByteOffsetDecodes) {
  // The receive path must reassemble frames whatever the segment
  // boundaries: the stream is written in two pieces split at every byte
  // offset, including inside the one- and two-byte varint length prefixes.
  FrameSink server_sink;
  TcpTransport server(server_sink.callbacks(), TcpTransport::Options{});
  const std::uint16_t port = server.listen(0);
  server.start();

  std::vector<std::uint8_t> stream = heartbeat_frame(0, 1);
  proto::PutReq put;
  put.key = store::intern_key("split:put");
  put.value.assign(200, 'p');  // body >= 128: a two-byte prefix
  put.op_id = 300;
  proto::encode(proto::Message{put}, stream);
  const std::vector<std::uint8_t> tail = heartbeat_frame(0, 2);
  stream.insert(stream.end(), tail.begin(), tail.end());

  const int fd = raw_connect(port);
  ASSERT_GE(fd, 0);
  for (std::size_t cut = 1; cut < stream.size(); ++cut) {
    ASSERT_TRUE(send_all(fd, stream.data(), cut));
    std::this_thread::sleep_for(200us);  // let the first piece land alone
    ASSERT_TRUE(send_all(fd, stream.data() + cut, stream.size() - cut));
  }
  const std::size_t rounds = stream.size() - 1;
  ASSERT_TRUE(server_sink.wait_for_frames(3 * rounds));
  for (std::size_t r = 0; r < rounds; ++r) {
    const auto first = server_sink.message_at(3 * r);
    const auto mid = server_sink.message_at(3 * r + 1);
    const auto last = server_sink.message_at(3 * r + 2);
    ASSERT_TRUE(first && mid && last) << "round " << r;
    EXPECT_EQ(std::get<proto::Heartbeat>(*first).ts, 1) << "round " << r;
    const auto& got = std::get<proto::PutReq>(*mid);
    EXPECT_EQ(got.value, put.value) << "round " << r;
    EXPECT_EQ(got.op_id, 300u) << "round " << r;
    EXPECT_EQ(std::get<proto::Heartbeat>(*last).ts, 2) << "round " << r;
  }
  EXPECT_EQ(server.stats().decode_errors, 0u);
  ::close(fd);
  server.stop();
}

TEST(TcpTransport, GreetingPrecedesBufferedTraffic) {
  // Frames sent while the link is down must arrive AFTER the greeting once
  // the link comes up — peers must always know who is talking first.
  FrameSink server_sink;
  TcpTransport server(server_sink.callbacks(), TcpTransport::Options{});
  const std::uint16_t port = server.listen(0);

  FrameSink client_sink;
  TcpTransport client(client_sink.callbacks(), TcpTransport::Options{});
  const ConnId conn = client.connect_peer("127.0.0.1", port);
  std::vector<std::uint8_t> hello;
  proto::encode(proto::NodeHello{NodeId{1, 2}}, hello);
  client.set_greeting(conn, hello);
  client.start();
  // The server is not started yet: sends buffer while dialing fails.
  ASSERT_TRUE(client.send(conn, heartbeat_frame(7, 42)));
  std::this_thread::sleep_for(50ms);
  server.start();

  ASSERT_TRUE(server_sink.wait_for_frames(2));
  const auto first = [&] {
    std::lock_guard lk(server_sink.mu);
    return server_sink.frames[0];
  }();
  ASSERT_TRUE(std::holds_alternative<proto::NodeHello>(first));
  EXPECT_EQ(std::get<proto::NodeHello>(first).node, (NodeId{1, 2}));
  const auto second = server_sink.message_at(1);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(std::get<proto::Heartbeat>(*second).ts, 42);
  client.stop();
  server.stop();
}

TEST(TcpTransport, ReconnectsAndPreservesPendingFrames) {
  FrameSink client_sink;
  TcpTransport client(client_sink.callbacks(), TcpTransport::Options{});

  // First server instance.
  FrameSink sink1;
  auto server = std::make_unique<TcpTransport>(sink1.callbacks(),
                                               TcpTransport::Options{});
  const std::uint16_t port = server->listen(0);
  server->start();

  const ConnId conn = client.connect_peer("127.0.0.1", port);
  client.start();
  ASSERT_TRUE(client.send(conn, heartbeat_frame(0, 1)));
  ASSERT_TRUE(sink1.wait_for_frames(1));

  // Kill the server; the OS releases the port only after close, so rebind on
  // the same port for the second instance.
  server.reset();
  std::this_thread::sleep_for(30ms);
  // Frames sent while the peer is down are buffered by the outbound link.
  ASSERT_TRUE(client.send(conn, heartbeat_frame(0, 2)));
  ASSERT_TRUE(client.send(conn, heartbeat_frame(0, 3)));

  FrameSink sink2;
  auto server2 =
      std::make_unique<TcpTransport>(sink2.callbacks(),
                                     TcpTransport::Options{});
  // SO_REUSEADDR makes the immediate rebind reliable.
  ASSERT_EQ(server2->listen(port), port);
  server2->start();

  ASSERT_TRUE(sink2.wait_for_frames(2, 10'000'000))
      << "buffered frames were not delivered after reconnect";
  const auto m0 = sink2.message_at(0);
  const auto m1 = sink2.message_at(1);
  ASSERT_TRUE(m0.has_value() && m1.has_value());
  EXPECT_EQ(std::get<proto::Heartbeat>(*m0).ts, 2);
  EXPECT_EQ(std::get<proto::Heartbeat>(*m1).ts, 3);
  EXPECT_GE(client.stats().reconnects, 1u);
  client.stop();
  server2.reset();
}

TEST(TcpTransport, ReconnectDuringHandshakeReplaysGreetingFirst) {
  // The peer dies right after consuming the greeting. On the replacement
  // socket the greeting must be replayed BEFORE any buffered payload — a
  // restarted peer that never saw it could not attribute the traffic.
  FrameSink client_sink;
  TcpTransport client(client_sink.callbacks(), TcpTransport::Options{});

  FrameSink sink1;
  auto server = std::make_unique<TcpTransport>(sink1.callbacks(),
                                               TcpTransport::Options{});
  const std::uint16_t port = server->listen(0);
  server->start();

  const ConnId conn = client.connect_peer("127.0.0.1", port);
  std::vector<std::uint8_t> hello;
  proto::encode(proto::NodeHello{NodeId{2, 1}}, hello);
  client.set_greeting(conn, hello);
  client.start();
  ASSERT_TRUE(client.send(conn, heartbeat_frame(0, 1)));
  // First server saw greeting + one payload, then dies mid-handshake.
  ASSERT_TRUE(sink1.wait_for_frames(2));
  server.reset();
  std::this_thread::sleep_for(30ms);
  ASSERT_TRUE(client.send(conn, heartbeat_frame(0, 2)));
  ASSERT_TRUE(client.send(conn, heartbeat_frame(0, 3)));

  FrameSink sink2;
  auto server2 = std::make_unique<TcpTransport>(sink2.callbacks(),
                                                TcpTransport::Options{});
  ASSERT_EQ(server2->listen(port), port);
  server2->start();

  ASSERT_TRUE(sink2.wait_for_frames(3, 10'000'000))
      << "greeting + buffered frames not delivered after reconnect";
  const auto first = [&] {
    std::lock_guard lk(sink2.mu);
    return sink2.frames[0];
  }();
  ASSERT_TRUE(std::holds_alternative<proto::NodeHello>(first))
      << "replacement socket must open with the greeting";
  EXPECT_EQ(std::get<proto::NodeHello>(first).node, (NodeId{2, 1}));
  const auto m1 = sink2.message_at(1);
  const auto m2 = sink2.message_at(2);
  ASSERT_TRUE(m1.has_value() && m2.has_value());
  EXPECT_EQ(std::get<proto::Heartbeat>(*m1).ts, 2);
  EXPECT_EQ(std::get<proto::Heartbeat>(*m2).ts, 3);
  client.stop();
  server2.reset();
}

TEST(TcpTransport, DownBufferCapDropsWhileDisconnected) {
  // While a link has no socket, buffering is bounded by the tighter
  // down-buffer cap: overflow is dropped and counted, never queued forever.
  FrameSink sink;
  TcpTransport::Options opt;
  opt.max_down_buffer_bytes = 64;  // one heartbeat frame fits, ten do not
  TcpTransport client(sink.callbacks(), opt);
  const ConnId conn = client.connect_peer("127.0.0.1", 1);  // never answers
  client.start();
  bool rejected = false;
  for (int i = 0; i < 10; ++i) {
    rejected = !client.send(conn, heartbeat_frame(0, i)) || rejected;
  }
  EXPECT_TRUE(rejected);
  EXPECT_GT(client.stats().down_buffer_drops, 0u);
  client.stop();
}

TEST(TcpTransport, ChaosLinkDuplicatesAndDelaysAreAccounted) {
  // A dup_p=1 chaos link on the client connection: every frame transmits
  // twice; FIFO order of the originals is preserved and the injection is
  // visible in the transport stats.
  FrameSink server_sink;
  TcpTransport server(server_sink.callbacks(), TcpTransport::Options{});
  const std::uint16_t port = server.listen(0);
  server.start();

  FrameSink client_sink;
  TcpTransport client(client_sink.callbacks(), TcpTransport::Options{});
  const ConnId conn = client.connect_peer("127.0.0.1", port);
  client.start();
  ChaosProfile p;
  p.base_delay_us = 1'000;
  p.dup_p = 1.0;
  client.set_chaos(conn, std::make_shared<ChaosLink>(5, p));

  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.send(conn, heartbeat_frame(0, 100 + i)));
  }
  ASSERT_TRUE(server_sink.wait_for_frames(10))
      << "duplicated frames never arrived";
  EXPECT_EQ(client.stats().chaos_duplicates, 5u);
  EXPECT_EQ(client.stats().chaos_delayed, 5u);
  // Dedup the doubled stream: the surviving order must still be FIFO.
  std::vector<Timestamp> seq;
  {
    std::lock_guard lk(server_sink.mu);
    for (const proto::Frame& f : server_sink.frames) {
      if (const auto* m = std::get_if<proto::Message>(&f)) {
        const auto& hb = std::get<proto::Heartbeat>(*m);
        if (seq.empty() || seq.back() != hb.ts) seq.push_back(hb.ts);
      }
    }
  }
  ASSERT_EQ(seq.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(seq[i], 100 + i);
  client.stop();
  server.stop();
}

TEST(TcpTransport, BackpressureCapsOutbox) {
  FrameSink sink;
  TcpTransport::Options tight;
  tight.max_outbox_bytes = 256;  // tiny cap
  TcpTransport client(sink.callbacks(), tight);
  // Dial a port that never answers: everything queues against the cap.
  const ConnId conn = client.connect_peer("127.0.0.1", 1);
  client.start();
  bool rejected = false;
  for (int i = 0; i < 100 && !rejected; ++i) {
    rejected = !client.send(conn, heartbeat_frame(0, i));
  }
  EXPECT_TRUE(rejected) << "overflow must reject sends, not grow unbounded";
  EXPECT_GT(client.stats().send_overflows, 0u);
  client.stop();
}

TEST(TcpTransport, SendToUnknownConnectionFails) {
  FrameSink sink;
  TcpTransport t(sink.callbacks(), TcpTransport::Options{});
  EXPECT_FALSE(t.send(12'345, heartbeat_frame(0, 0)));
}

TEST(TcpTransport, TickFiresPeriodically) {
  FrameSink sink;
  std::atomic<int> ticks{0};
  auto callbacks = sink.callbacks();
  callbacks.on_tick = [&ticks] { ++ticks; };
  TcpTransport::Options opt;
  opt.tick_interval_us = 2'000;
  TcpTransport t(std::move(callbacks), opt);
  t.start();
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (ticks.load() < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  t.stop();
  EXPECT_GE(ticks.load(), 3) << "flush tick never fired";
}

TEST(TcpTransport, SignalStormDoesNotTearConnections) {
  // The EINTR regression test: pepper every loop thread with SIGUSR1 (no
  // SA_RESTART, so recv/send/epoll_wait really return EINTR) during a
  // checked transfer. Interrupted syscalls must be retried, not treated as
  // socket errors — the connection survives with FIFO intact and ZERO
  // reconnects.
  struct sigaction sa{};
  sa.sa_handler = [](int) {};
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately no SA_RESTART
  struct sigaction old{};
  ASSERT_EQ(sigaction(SIGUSR1, &sa, &old), 0);

  FrameSink server_sink;
  TcpTransport::Options sopt;
  sopt.num_loops = 2;
  TcpTransport server(server_sink.callbacks(), sopt);
  const std::uint16_t port = server.listen(0);
  server.start();

  FrameSink client_sink;
  TcpTransport client(client_sink.callbacks(), TcpTransport::Options{});
  const ConnId conn = client.connect_peer("127.0.0.1", port);
  client.start();

  std::atomic<bool> storm{true};
  std::vector<std::thread::native_handle_type> victims;
  for (const auto h : server.loop_thread_handles()) victims.push_back(h);
  for (const auto h : client.loop_thread_handles()) victims.push_back(h);
  std::thread pepper([&] {
    while (storm.load()) {
      for (const auto h : victims) {
        pthread_kill(h, SIGUSR1);
      }
      std::this_thread::sleep_for(200us);
    }
  });

  constexpr int kFrames = 400;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(client.send(conn, heartbeat_frame(1, 1'000 + i)));
    if (i % 50 == 0) std::this_thread::sleep_for(1ms);  // overlap the storm
  }
  const bool all = server_sink.wait_for_frames(kFrames, 20'000'000);
  storm.store(false);
  pepper.join();
  ASSERT_TRUE(all) << "frames lost under the signal storm";

  for (int i = 0; i < kFrames; ++i) {
    const auto m = server_sink.message_at(i);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(std::get<proto::Heartbeat>(*m).ts, 1'000 + i)
        << "FIFO order violated at " << i;
  }
  EXPECT_EQ(client.stats().reconnects, 0u)
      << "a signal tore a healthy connection down";
  EXPECT_EQ(server_sink.disconnects.load(), 0);
  EXPECT_EQ(client_sink.disconnects.load(), 0);
  client.stop();
  server.stop();
  ASSERT_EQ(sigaction(SIGUSR1, &old, nullptr), 0);
}

TEST(TcpTransport, ShardedLoopsPreserveFifoPerStream) {
  // Several clients against a 4-shard server: the SO_REUSEPORT listeners
  // spread the accepts, and every stream keeps its own FIFO regardless of
  // which shard owns it.
  FrameSink server_sink;
  TcpTransport::Options sopt;
  sopt.num_loops = 4;
  TcpTransport server(server_sink.callbacks(), sopt);
  ASSERT_EQ(server.num_loops(), 4u);
  const std::uint16_t port = server.listen(0);
  server.start();

  constexpr int kClients = 6;
  constexpr int kPerClient = 100;
  std::vector<std::unique_ptr<TcpTransport>> clients;
  std::vector<FrameSink> sinks(kClients);
  std::vector<ConnId> conns;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<TcpTransport>(
        sinks[c].callbacks(), TcpTransport::Options{}));
    conns.push_back(clients.back()->connect_peer("127.0.0.1", port));
    clients.back()->start();
  }
  // The heartbeat's dc field names the stream, ts carries the sequence.
  for (int i = 0; i < kPerClient; ++i) {
    for (int c = 0; c < kClients; ++c) {
      ASSERT_TRUE(clients[c]->send(
          conns[c], heartbeat_frame(static_cast<DcId>(c), 1 + i)));
    }
  }
  ASSERT_TRUE(server_sink.wait_for_frames(kClients * kPerClient, 20'000'000));

  std::unordered_map<DcId, Timestamp> last_ts;
  {
    std::lock_guard lk(server_sink.mu);
    for (const proto::Frame& f : server_sink.frames) {
      const auto* m = std::get_if<proto::Message>(&f);
      ASSERT_NE(m, nullptr);
      const auto& hb = std::get<proto::Heartbeat>(*m);
      EXPECT_EQ(hb.ts, last_ts[hb.src_dc] + 1)
          << "per-stream FIFO violated on stream " << hb.src_dc;
      last_ts[hb.src_dc] = hb.ts;
    }
  }
  EXPECT_EQ(last_ts.size(), static_cast<std::size_t>(kClients));
  EXPECT_EQ(server.stats().accepts, static_cast<std::uint64_t>(kClients));
  for (auto& c : clients) c->stop();
  server.stop();
}

TEST(TcpTransport, MigrateRehomesInboundConnectionPreservingFifo) {
  // Connection pinning: mid-stream the server migrates the inbound
  // connection to the other shard (as a host does on ClientHello). The
  // socket keeps delivering in order under a new ConnId on the target
  // loop — no disconnect, no reconnect, one migration accounted.
  std::mutex mu;
  std::vector<std::pair<ConnId, Timestamp>> received;
  std::vector<std::pair<ConnId, ConnId>> renames;
  std::atomic<int> connects{0};
  std::atomic<int> disconnects{0};
  TcpTransport* server_ptr = nullptr;

  TcpTransport::Callbacks cb{
      [&](ConnId conn, proto::Frame f) {
        const auto* m = std::get_if<proto::Message>(&f);
        ASSERT_NE(m, nullptr);
        const auto& hb = std::get<proto::Heartbeat>(*m);
        {
          std::lock_guard lk(mu);
          received.emplace_back(conn, hb.ts);
        }
        if (hb.ts == 1) {
          // Pin to the shard the connection is NOT on (from the owning
          // shard's on_frame, like the ClientHello path).
          const std::uint32_t target = 1 - TcpTransport::loop_of(conn);
          EXPECT_TRUE(server_ptr->migrate(conn, target));
        }
      },
      [&](ConnId) { ++connects; },
      [&](ConnId) { ++disconnects; },
      nullptr,
      nullptr,
      [&](ConnId from, ConnId to) {
        std::lock_guard lk(mu);
        renames.emplace_back(from, to);
      },
  };
  TcpTransport::Options sopt;
  sopt.num_loops = 2;
  TcpTransport server(std::move(cb), sopt);
  server_ptr = &server;
  const std::uint16_t port = server.listen(0);
  server.start();

  FrameSink client_sink;
  TcpTransport client(client_sink.callbacks(), TcpTransport::Options{});
  const ConnId conn = client.connect_peer("127.0.0.1", port);
  client.start();

  constexpr int kFrames = 50;
  // First frame triggers the pin; wait for the handoff to complete so the
  // rest of the stream demonstrably crosses it.
  ASSERT_TRUE(client.send(conn, heartbeat_frame(0, 1)));
  const auto rename_deadline = std::chrono::steady_clock::now() + 10s;
  while (std::chrono::steady_clock::now() < rename_deadline) {
    {
      std::lock_guard lk(mu);
      if (!renames.empty()) break;
    }
    std::this_thread::sleep_for(1ms);
  }
  for (int i = 2; i <= kFrames; ++i) {
    ASSERT_TRUE(client.send(conn, heartbeat_frame(0, i)));
  }
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (std::chrono::steady_clock::now() < deadline) {
    {
      std::lock_guard lk(mu);
      if (received.size() >= static_cast<std::size_t>(kFrames)) break;
    }
    std::this_thread::sleep_for(1ms);
  }

  std::lock_guard lk(mu);
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(received[i].second, i + 1) << "FIFO broke across the handoff";
  }
  ASSERT_EQ(renames.size(), 1u) << "exactly one migration expected";
  const auto [from, to] = renames[0];
  EXPECT_EQ(TcpTransport::loop_of(to), 1 - TcpTransport::loop_of(from));
  // Frames after the handoff arrive under the new id (the handoff point
  // itself is wherever the decode pass cut the stream).
  EXPECT_EQ(received.front().first, from);
  EXPECT_EQ(received.back().first, to);
  EXPECT_EQ(server.stats().migrations, 1u);
  EXPECT_EQ(connects.load(), 1) << "migration must not re-announce";
  EXPECT_EQ(disconnects.load(), 0) << "migration must not announce a loss";
  client.stop();
  server.stop();
}

TEST(TcpTransport, PollBackendCarriesTrafficAcrossShards) {
  // The poll(2) fallback must behave identically to epoll — run a sharded
  // transfer on it explicitly (CI otherwise only exercises the default).
  FrameSink server_sink;
  TcpTransport::Options sopt;
  sopt.num_loops = 2;
  sopt.backend = EventLoop::Backend::kPoll;
  TcpTransport server(server_sink.callbacks(), sopt);
  const std::uint16_t port = server.listen(0);
  server.start();

  FrameSink client_sink;
  TcpTransport::Options copt;
  copt.backend = EventLoop::Backend::kPoll;
  TcpTransport client(client_sink.callbacks(), copt);
  const ConnId conn = client.connect_peer("127.0.0.1", port);
  client.start();

  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(client.send(conn, heartbeat_frame(0, 1'000 + i)));
  }
  ASSERT_TRUE(server_sink.wait_for_frames(50));
  for (int i = 0; i < 50; ++i) {
    const auto m = server_sink.message_at(i);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(std::get<proto::Heartbeat>(*m).ts, 1'000 + i);
  }
  client.stop();
  server.stop();
}

TEST(TcpTransport, UringBackendCarriesTrafficAcrossShards) {
  // Same sharded transfer on the io_uring backend: multishot-poll readiness
  // must be indistinguishable from epoll at the framing layer, and the
  // backend's counters must show up in the aggregated transport stats.
  if (!EventLoop::uring_available()) {
    GTEST_SKIP() << "io_uring denied by kernel/seccomp — kUring transport "
                    "leg not runnable here";
  }
  FrameSink server_sink;
  TcpTransport::Options sopt;
  sopt.num_loops = 2;
  sopt.backend = EventLoop::Backend::kUring;
  TcpTransport server(server_sink.callbacks(), sopt);
  const std::uint16_t port = server.listen(0);
  server.start();

  FrameSink client_sink;
  TcpTransport::Options copt;
  copt.backend = EventLoop::Backend::kUring;
  TcpTransport client(client_sink.callbacks(), copt);
  const ConnId conn = client.connect_peer("127.0.0.1", port);
  client.start();

  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(client.send(conn, heartbeat_frame(0, 1'000 + i)));
  }
  ASSERT_TRUE(server_sink.wait_for_frames(50));
  for (int i = 0; i < 50; ++i) {
    const auto m = server_sink.message_at(i);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(std::get<proto::Heartbeat>(*m).ts, 1'000 + i);
  }
  const TransportStats st = server.stats();
  EXPECT_GT(st.uring_enters, 0u);
  EXPECT_GT(st.uring_sqes, 0u);
  EXPECT_GT(st.uring_cqes, 0u);
  client.stop();
  server.stop();
}

TEST(TcpTransport, UringBackendMigratesInboundConnection) {
  // Connection pinning across shards on kUring: the unwatch on the source
  // loop must cancel the armed multishot poll (no stale CQE can touch the
  // recycled fd slot) and the target loop re-arms it — FIFO holds.
  if (!EventLoop::uring_available()) {
    GTEST_SKIP() << "io_uring denied by kernel/seccomp — kUring migrate "
                    "leg not runnable here";
  }
  std::mutex mu;
  std::vector<Timestamp> received;
  std::vector<std::pair<ConnId, ConnId>> renames;
  TcpTransport* server_ptr = nullptr;
  TcpTransport::Callbacks cb{
      [&](ConnId conn, proto::Frame f) {
        const auto* m = std::get_if<proto::Message>(&f);
        ASSERT_NE(m, nullptr);
        const auto& hb = std::get<proto::Heartbeat>(*m);
        {
          std::lock_guard lk(mu);
          received.push_back(hb.ts);
        }
        if (hb.ts == 1) {
          const std::uint32_t target = 1 - TcpTransport::loop_of(conn);
          EXPECT_TRUE(server_ptr->migrate(conn, target));
        }
      },
      nullptr,
      nullptr,
      nullptr,
      nullptr,
      [&](ConnId from, ConnId to) {
        std::lock_guard lk(mu);
        renames.emplace_back(from, to);
      },
  };
  TcpTransport::Options sopt;
  sopt.num_loops = 2;
  sopt.backend = EventLoop::Backend::kUring;
  TcpTransport server(std::move(cb), sopt);
  server_ptr = &server;
  const std::uint16_t port = server.listen(0);
  server.start();

  FrameSink client_sink;
  TcpTransport::Options copt;
  copt.backend = EventLoop::Backend::kUring;
  TcpTransport client(client_sink.callbacks(), copt);
  const ConnId conn = client.connect_peer("127.0.0.1", port);
  client.start();

  constexpr int kFrames = 50;
  ASSERT_TRUE(client.send(conn, heartbeat_frame(0, 1)));
  const auto rename_deadline = std::chrono::steady_clock::now() + 10s;
  while (std::chrono::steady_clock::now() < rename_deadline) {
    {
      std::lock_guard lk(mu);
      if (!renames.empty()) break;
    }
    std::this_thread::sleep_for(1ms);
  }
  for (int i = 2; i <= kFrames; ++i) {
    ASSERT_TRUE(client.send(conn, heartbeat_frame(0, i)));
  }
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (std::chrono::steady_clock::now() < deadline) {
    {
      std::lock_guard lk(mu);
      if (received.size() >= static_cast<std::size_t>(kFrames)) break;
    }
    std::this_thread::sleep_for(1ms);
  }
  std::lock_guard lk(mu);
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(received[i], i + 1) << "FIFO broke across the uring handoff";
  }
  ASSERT_EQ(renames.size(), 1u);
  EXPECT_EQ(server.stats().migrations, 1u);
  client.stop();
  server.stop();
}

// ------------------------------------------------------------ LinkBatcher --

/// Extracts the heartbeat timestamps of every frame in arrival order,
/// unwrapping batches — the cross-frame FIFO order the protocol relies on.
std::vector<Timestamp> heartbeat_sequence(FrameSink& sink) {
  std::vector<Timestamp> seq;
  std::lock_guard lk(sink.mu);
  for (const proto::Frame& f : sink.frames) {
    if (const auto* m = std::get_if<proto::Message>(&f)) {
      if (const auto* hb = std::get_if<proto::Heartbeat>(m)) {
        seq.push_back(hb->ts);
      }
    } else if (const auto* batch = std::get_if<proto::BatchFrame>(&f)) {
      for (const auto& item : batch->items) {
        if (const auto* hb = std::get_if<proto::Heartbeat>(&item.msg)) {
          seq.push_back(hb->ts);
        }
      }
    }
  }
  return seq;
}

std::size_t batch_frames_seen(FrameSink& sink) {
  std::lock_guard lk(sink.mu);
  std::size_t n = 0;
  for (const proto::Frame& f : sink.frames) {
    n += std::holds_alternative<proto::BatchFrame>(f) ? 1 : 0;
  }
  return n;
}

TEST(TcpTransport, BatcherFlushesOnMessageThreshold) {
  FrameSink server_sink;
  TcpTransport server(server_sink.callbacks(), TcpTransport::Options{});
  const std::uint16_t port = server.listen(0);
  server.start();

  FrameSink client_sink;
  TcpTransport client(client_sink.callbacks(), TcpTransport::Options{});
  const ConnId conn = client.connect_peer("127.0.0.1", port);
  client.start();

  BatchPolicy policy;
  policy.max_messages = 8;
  policy.max_bytes = 1u << 20;
  LinkBatcher batcher(client, conn, policy);
  const NodeId from{0, 0};
  const NodeId to{1, 0};
  for (int i = 0; i < 24; ++i) {
    batcher.add(from, to, proto::Message{proto::Heartbeat{0, 100 + i}});
  }
  // 24 messages at a threshold of 8 = exactly 3 inline flushes, no tick.
  ASSERT_TRUE(server_sink.wait_for_frames(3));
  EXPECT_EQ(batch_frames_seen(server_sink), 3u);
  const auto seq = heartbeat_sequence(server_sink);
  ASSERT_EQ(seq.size(), 24u);
  for (int i = 0; i < 24; ++i) EXPECT_EQ(seq[i], 100 + i);
  const BatchStats stats = batcher.stats();
  EXPECT_EQ(stats.batches, 3u);
  EXPECT_EQ(stats.messages, 24u);
  EXPECT_GT(stats.protocol_bytes, 0u);
  EXPECT_GT(stats.overhead_bytes, 0u);
  client.stop();
  server.stop();
}

TEST(TcpTransport, BatcherTimeFlushDrainsStragglers) {
  // A message below every size threshold must still leave within ~one tick.
  FrameSink server_sink;
  TcpTransport server(server_sink.callbacks(), TcpTransport::Options{});
  const std::uint16_t port = server.listen(0);
  server.start();

  FrameSink client_sink;
  BatchPolicy policy;  // defaults: far above 1 message
  std::shared_ptr<LinkBatcher> batcher;
  std::mutex batcher_mu;
  auto callbacks = client_sink.callbacks();
  callbacks.on_tick = [&] {
    std::lock_guard lk(batcher_mu);
    if (batcher) batcher->flush();
  };
  TcpTransport::Options opt;
  opt.tick_interval_us = policy.max_delay_us;
  TcpTransport client(std::move(callbacks), opt);
  const ConnId conn = client.connect_peer("127.0.0.1", port);
  {
    std::lock_guard lk(batcher_mu);
    batcher = std::make_shared<LinkBatcher>(client, conn, policy);
  }
  client.start();

  batcher->add(NodeId{0, 0}, NodeId{1, 0},
               proto::Message{proto::Heartbeat{3, 777}});
  ASSERT_TRUE(server_sink.wait_for_frames(1))
      << "staged straggler never flushed by the tick";
  const auto seq = heartbeat_sequence(server_sink);
  ASSERT_EQ(seq.size(), 1u);
  EXPECT_EQ(seq[0], 777);
  client.stop();
  server.stop();
}

TEST(TcpTransport, BatchFlushPreservesFifoAcrossReconnects) {
  // The per-link FIFO the protocol assumes (§II-C) must hold through a peer
  // restart even when traffic is a mix of threshold flushes, tick flushes
  // and frames staged while the link is down.
  FrameSink client_sink;
  TcpTransport client(client_sink.callbacks(), TcpTransport::Options{});

  FrameSink sink1;
  auto server = std::make_unique<TcpTransport>(sink1.callbacks(),
                                               TcpTransport::Options{});
  const std::uint16_t port = server->listen(0);
  server->start();

  const ConnId conn = client.connect_peer("127.0.0.1", port);
  client.start();

  BatchPolicy policy;
  policy.max_messages = 4;
  LinkBatcher batcher(client, conn, policy);
  const NodeId from{0, 0};
  const NodeId to{1, 0};
  Timestamp ts = 0;
  for (int i = 0; i < 8; ++i) {  // two full batches before the crash
    batcher.add(from, to, proto::Message{proto::Heartbeat{0, ++ts}});
  }
  ASSERT_TRUE(sink1.wait_for_frames(2));

  // Kill the server; stage more traffic while the link is down — one partial
  // batch flushed manually (as the tick would) plus two threshold flushes.
  server.reset();
  std::this_thread::sleep_for(30ms);
  batcher.add(from, to, proto::Message{proto::Heartbeat{0, ++ts}});
  batcher.flush();
  for (int i = 0; i < 8; ++i) {
    batcher.add(from, to, proto::Message{proto::Heartbeat{0, ++ts}});
  }

  FrameSink sink2;
  auto server2 = std::make_unique<TcpTransport>(sink2.callbacks(),
                                                TcpTransport::Options{});
  ASSERT_EQ(server2->listen(port), port);
  server2->start();

  // One more batch after the peer is back.
  for (int i = 0; i < 4; ++i) {
    batcher.add(from, to, proto::Message{proto::Heartbeat{0, ++ts}});
  }
  ASSERT_TRUE(sink2.wait_for_frames(4, 10'000'000))
      << "buffered batches were not delivered after reconnect";
  const auto seq = heartbeat_sequence(sink2);
  ASSERT_EQ(seq.size(), 13u);  // 1 + 8 + 4 staged since the crash
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i], static_cast<Timestamp>(9 + i))
        << "FIFO order violated at " << i;
  }
  EXPECT_GE(client.stats().reconnects, 1u);
  client.stop();
  server2.reset();
}

}  // namespace
}  // namespace pocc::net
