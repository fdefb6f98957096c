#include "net/tcp_transport.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/assert.hpp"
#include "runtime/rt_node.hpp"

namespace pocc::net {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;

/// Scatter-gather width of one sendmsg flush: enough to drain a reply
/// burst or a batcher flush in one syscall, small enough to stack-allocate.
constexpr std::size_t kMaxFlushIov = 64;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  POCC_ASSERT(flags >= 0);
  POCC_ASSERT(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0);
}

}  // namespace

// The deployment's single monotonic time base (also what poccd aligns to
// CLOCK_REALTIME via offset_bias_us); only used here for backoff timing.
Timestamp TcpTransport::now_us() { return rt::steady_now_us(); }

TcpTransport::TcpTransport(Callbacks callbacks, Options options)
    : cb_(std::move(callbacks)), opt_(options) {
  const std::uint32_t n = std::max<std::uint32_t>(1, opt_.num_loops);
  shards_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    auto s = std::make_unique<Shard>();
    s->index = i;
    s->loop = std::make_unique<EventLoop>(opt_.backend);
    POCC_ASSERT(::pipe(s->wake_pipe) == 0);
    set_nonblocking(s->wake_pipe[0]);
    set_nonblocking(s->wake_pipe[1]);
    s->backoff_rng = Rng(opt_.seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
    shards_.push_back(std::move(s));
  }
}

TcpTransport::~TcpTransport() {
  stop();
  for (auto& s : shards_) {
    if (s->listen_fd >= 0) ::close(s->listen_fd);
    for (auto& [id, conn] : s->conns) {
      if (conn->fd >= 0) ::close(conn->fd);
    }
    for (auto& conn : s->adopted) {
      if (conn->fd >= 0) ::close(conn->fd);
    }
    ::close(s->wake_pipe[0]);
    ::close(s->wake_pipe[1]);
  }
}

std::uint16_t TcpTransport::listen(std::uint16_t port) {
  POCC_ASSERT_MSG(shards_[0]->listen_fd < 0, "listen() called twice");
  // One listening socket per shard, all bound to the same port with
  // SO_REUSEPORT: the kernel spreads incoming connections across the
  // shards' accept queues, so no loop is an accept bottleneck. An
  // ephemeral request (port 0) resolves on the first socket; the rest
  // join that port.
  std::uint16_t bound = port;
  for (auto& sp : shards_) {
    Shard& s = *sp;
    s.listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    POCC_ASSERT(s.listen_fd >= 0);
    const int one = 1;
    ::setsockopt(s.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (shards_.size() > 1) {
      POCC_ASSERT_MSG(::setsockopt(s.listen_fd, SOL_SOCKET, SO_REUSEPORT, &one,
                                   sizeof(one)) == 0,
                      "SO_REUSEPORT unavailable for sharded accept");
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(bound);
    POCC_ASSERT_MSG(
        ::bind(s.listen_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) == 0,
        "cannot bind listen socket (port in use?)");
    POCC_ASSERT(::listen(s.listen_fd, 512) == 0);
    socklen_t len = sizeof(addr);
    POCC_ASSERT(::getsockname(s.listen_fd, reinterpret_cast<sockaddr*>(&addr),
                              &len) == 0);
    set_nonblocking(s.listen_fd);
    bound = ntohs(addr.sin_port);
  }
  listen_port_ = bound;
  return listen_port_;
}

TcpTransport::Shard* TcpTransport::shard_of(ConnId conn) const {
  const std::uint32_t idx = loop_of(conn);
  if (idx >= shards_.size()) return nullptr;
  return shards_[idx].get();
}

ConnId TcpTransport::connect_peer(std::string host, std::uint16_t port,
                                  std::int32_t loop) {
  // Outbound links get a designated owning loop (peer FIFO links are
  // spread deterministically by the host); -1 assigns round-robin.
  const std::uint32_t idx =
      loop >= 0 && static_cast<std::size_t>(loop) < shards_.size()
          ? static_cast<std::uint32_t>(loop)
          : next_dial_shard_.fetch_add(1, std::memory_order_relaxed) %
                static_cast<std::uint32_t>(shards_.size());
  Shard& s = *shards_[idx];
  std::lock_guard lk(s.mu);
  auto conn = std::make_unique<Conn>();
  conn->id = (static_cast<ConnId>(idx) << kShardShift) | s.next_seq++;
  conn->outbound = true;
  conn->host = std::move(host);
  conn->port = port;
  conn->retry_at = 0;  // dial on the next loop iteration
  const ConnId id = conn->id;
  s.conns.emplace(id, std::move(conn));
  if (started_.load(std::memory_order_relaxed)) wake(s);
  return id;
}

void TcpTransport::start() {
  POCC_ASSERT(!started_.exchange(true));
  for (auto& s : shards_) {
    s->thread = std::thread([this, shard = s.get()] { run(*shard); });
  }
}

void TcpTransport::stop() {
  for (auto& s : shards_) {
    {
      std::lock_guard lk(s->mu);
      s->stopping = true;  // idempotent: a second stop only re-joins
    }
    wake(*s);
  }
  for (auto& s : shards_) {
    if (s->thread.joinable()) s->thread.join();
  }
}

void TcpTransport::wake(Shard& s) {
  const char b = 1;
  while (true) {
    const ssize_t n = ::write(s.wake_pipe[1], &b, 1);
    if (n >= 0) return;
    // A signal mid-write must not lose the wakeup; a full pipe means a
    // wake is already pending, which is all a wake means.
    if (errno == EINTR) continue;
    return;
  }
}

void TcpTransport::wake_loop(std::uint32_t loop) {
  if (loop >= shards_.size()) return;
  wake(*shards_[loop]);
}

std::vector<std::thread::native_handle_type>
TcpTransport::loop_thread_handles() {
  std::vector<std::thread::native_handle_type> out;
  for (auto& s : shards_) {
    if (s->thread.joinable()) out.push_back(s->thread.native_handle());
  }
  return out;
}

bool TcpTransport::try_send(ConnId conn, std::vector<std::uint8_t>& frame) {
  Shard* sp = shard_of(conn);
  if (sp == nullptr) return false;
  Shard& s = *sp;
  std::lock_guard lk(s.mu);
  auto it = s.conns.find(conn);
  if (it == s.conns.end()) return false;
  Conn& c = *it->second;
  if (!c.outbound && !c.up) return false;
  const std::size_t pending = c.outbox_bytes + c.chaos_held_bytes;
  // While the socket is down the tighter reconnect-buffer cap applies: a
  // long outage must not buffer up to the full backpressure bound.
  const bool socket_down = !c.up;
  const std::size_t cap =
      socket_down ? std::min(opt_.max_down_buffer_bytes, opt_.max_outbox_bytes)
                  : opt_.max_outbox_bytes;
  if (pending + frame.size() > cap) {
    if (socket_down && pending + frame.size() <= opt_.max_outbox_bytes) {
      ++s.stats.down_buffer_drops;
    } else {
      ++s.stats.send_overflows;
    }
    return false;
  }
  if (c.chaos != nullptr) {
    const Timestamp now = now_us();
    const ChaosVerdict v = c.chaos->on_frame(frame.size(), now);
    if (v.reset) c.chaos_reset_pending = true;
    ++s.stats.frames_out;
    if (v.duplicate) {
      ++s.stats.frames_out;
      ++s.stats.chaos_duplicates;
    }
    // Once anything is held, everything queues behind it (FIFO).
    if (v.delay_us > 0 || !c.chaos_hold.empty()) {
      ++s.stats.chaos_delayed;
      c.chaos_held_bytes += frame.size() * (v.duplicate ? 2 : 1);
      if (v.duplicate) {
        c.chaos_hold.push_back(Conn::HeldFrame{now + v.delay_us, frame});
      }
      c.chaos_hold.push_back(
          Conn::HeldFrame{now + v.delay_us, std::move(frame)});
      wake(s);
      return true;
    }
    if (v.duplicate) {
      enqueue_frame(c, frame);  // copy: the original goes below
    }
    enqueue_frame(c, std::move(frame));
    wake(s);
    return true;
  }
  enqueue_frame(c, std::move(frame));
  ++s.stats.frames_out;
  wake(s);
  return true;
}

void TcpTransport::enqueue_frame(Conn& c, std::vector<std::uint8_t> frame) {
  // Zero-copy: the caller's encode buffer IS the outbox entry; it returns
  // to the shard arena once the socket has written it.
  c.outbox_bytes += frame.size();
  c.outbox.push_back(std::move(frame));
}

void TcpTransport::recycle_conn(Shard& s, Conn& c) {
  s.arena.release(std::move(c.inbox));
  c.inbox = {};
  while (!c.outbox.empty()) {
    s.arena.release(std::move(c.outbox.front()));
    c.outbox.pop_front();
  }
  c.outbox_bytes = 0;
  c.frame_written = 0;
}

std::vector<std::uint8_t> TcpTransport::acquire_buffer(ConnId conn) {
  Shard* sp = shard_of(conn);
  if (sp == nullptr) return {};
  std::lock_guard lk(sp->mu);
  bool hit = false;
  std::vector<std::uint8_t> buf = sp->arena.acquire(&hit);
  if (hit) {
    ++sp->stats.arena_hits;
  } else {
    ++sp->stats.arena_misses;
  }
  return buf;
}

void TcpTransport::set_chaos(ConnId conn, std::shared_ptr<ChaosLink> link) {
  Shard* sp = shard_of(conn);
  if (sp == nullptr) return;
  std::lock_guard lk(sp->mu);
  auto it = sp->conns.find(conn);
  if (it == sp->conns.end()) return;
  it->second->chaos = std::move(link);
  if (started_.load(std::memory_order_relaxed)) wake(*sp);
}

void TcpTransport::set_greeting(ConnId conn, std::vector<std::uint8_t> frame) {
  Shard* sp = shard_of(conn);
  if (sp == nullptr) return;
  std::lock_guard lk(sp->mu);
  auto it = sp->conns.find(conn);
  if (it == sp->conns.end()) return;
  it->second->greeting = std::move(frame);
}

bool TcpTransport::migrate(ConnId conn, std::uint32_t target_loop) {
  Shard* sp = shard_of(conn);
  if (sp == nullptr || target_loop >= shards_.size()) return false;
  if (target_loop == sp->index) return false;
  std::lock_guard lk(sp->mu);
  auto it = sp->conns.find(conn);
  if (it == sp->conns.end()) return false;
  Conn& c = *it->second;
  // Only live accepted connections move: an outbound link's id is a stable
  // handle held by its LinkBatcher, and its shard is its designated owner.
  if (c.outbound || !c.up || c.fd < 0) return false;
  c.migrate_to = static_cast<std::int32_t>(target_loop);
  return true;
}

std::vector<std::pair<ConnId, ConnId>> TcpTransport::hand_over_migrations(
    Shard& s) {
  std::vector<std::unique_ptr<Conn>> moving;
  std::vector<std::pair<ConnId, ConnId>> renames;
  {
    std::lock_guard lk(s.mu);
    for (auto it = s.conns.begin(); it != s.conns.end();) {
      Conn& c = *it->second;
      if (c.migrate_to < 0) {
        ++it;
        continue;
      }
      if (!c.up || c.fd < 0) {  // died before the handoff; reaped normally
        c.migrate_to = -1;
        ++it;
        continue;
      }
      s.loop->unwatch(c.fd);
      s.unmap_fd(c.fd);
      ++s.stats.migrations;
      moving.push_back(std::move(it->second));
      it = s.conns.erase(it);
    }
  }
  for (auto& cp : moving) {
    Shard& t = *shards_[static_cast<std::size_t>(cp->migrate_to)];
    cp->migrate_to = -1;
    const ConnId old_id = cp->id;
    {
      std::lock_guard lk(t.mu);
      cp->id = (static_cast<ConnId>(t.index) << kShardShift) | t.next_seq++;
      renames.emplace_back(old_id, cp->id);
      t.adopted.push_back(std::move(cp));
    }
    wake(t);
  }
  return renames;
}

bool TcpTransport::connected(ConnId conn) const {
  Shard* sp = shard_of(conn);
  if (sp == nullptr) return false;
  std::lock_guard lk(sp->mu);
  auto it = sp->conns.find(conn);
  return it != sp->conns.end() && it->second->up;
}

TransportStats TcpTransport::stats() const {
  TransportStats total;
  for (const auto& s : shards_) {
    {
      std::lock_guard lk(s->mu);
      total += s->stats;
    }
    // EventLoop counters are relaxed atomics written by the loop thread;
    // the loop outlives every scrape, so reading them outside the shard
    // lock is safe and keeps the scrape off the hot path.
    const EventLoop::Stats& ls = s->loop->stats();
    total.uring_enters += ls.uring_enters.load();
    total.uring_sqes += ls.uring_sqes.load();
    total.uring_cqes += ls.uring_cqes.load();
    total.uring_no_syscall_waits += ls.uring_no_syscall_waits.load();
  }
  return total;
}

void TcpTransport::dial(Shard& s, Conn& c, Timestamp now) {
  c.retry_at = 0;
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port_str = std::to_string(c.port);
  if (::getaddrinfo(c.host.c_str(), port_str.c_str(), &hints, &res) != 0 ||
      res == nullptr) {
    arm_backoff(s, c, now);
    return;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  POCC_ASSERT(fd >= 0);
  set_nonblocking(fd);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int rc = ::connect(fd, res->ai_addr, res->ai_addrlen);
  ::freeaddrinfo(res);
  if (rc == 0) {
    c.fd = fd;
    s.map_fd(fd, c.id);
    mark_established(s, c);
    return;
  }
  if (errno == EINPROGRESS) {
    c.fd = fd;
    s.map_fd(fd, c.id);
    c.connecting = true;
    return;
  }
  ::close(fd);
  arm_backoff(s, c, now);
}

void TcpTransport::arm_backoff(Shard& s, Conn& c, Timestamp now) {
  // The ceiling doubles deterministically; the actual retry draws uniformly
  // from [min, ceiling] (full jitter) so a partition heal doesn't trigger a
  // synchronized redial storm across every cut link.
  c.backoff_us = std::clamp<Duration>(
      c.backoff_us == 0 ? opt_.reconnect_backoff_min_us : c.backoff_us * 2,
      opt_.reconnect_backoff_min_us, opt_.reconnect_backoff_max_us);
  const Duration span = c.backoff_us - opt_.reconnect_backoff_min_us;
  const Duration jittered =
      opt_.reconnect_backoff_min_us +
      (span > 0
           ? static_cast<Duration>(
                 s.backoff_rng.uniform(static_cast<std::uint64_t>(span) + 1))
           : 0);
  c.retry_at = now + jittered;
}

void TcpTransport::mark_established(Shard& /*s*/, Conn& c) {
  c.connecting = false;
  c.up = true;
  c.backoff_us = 0;
  if (!c.greeting.empty()) {
    // close_socket rewound frame_written to 0, so the front frame has no
    // partially-sent prefix and the greeting can jump the queue whole.
    POCC_ASSERT(c.frame_written == 0);
    c.outbox_bytes += c.greeting.size();
    c.outbox.push_front(c.greeting);  // copy: re-sent on every reconnect
  }
}

void TcpTransport::close_socket(Shard& s, Conn& c) {
  if (c.fd >= 0) {
    s.loop->unwatch(c.fd);
    s.unmap_fd(c.fd);
    ::close(c.fd);
    c.fd = -1;
  }
  c.connecting = false;
  c.up = false;
  c.announced = false;
  c.inbox.clear();
  // Rewind a partially-written frame to its boundary: the reconnected
  // socket must restart the frame from byte 0, never resume its tail.
  c.outbox_bytes += c.frame_written;
  c.frame_written = 0;
  if (c.outbound) {
    arm_backoff(s, c, now_us());
    ++s.stats.reconnects;
  }
}

void TcpTransport::chaos_pass(Shard& s, Timestamp now,
                              std::vector<ConnId>& went_down) {
  for (auto& [id, cp] : s.conns) {
    Conn& c = *cp;
    if (c.chaos == nullptr) continue;
    const bool was_up = c.up;
    if (c.chaos_reset_pending) {
      c.chaos_reset_pending = false;
      if (c.up || c.connecting) {
        ++s.stats.chaos_resets;
        close_socket(s, c);
      }
    }
    if ((c.up || c.connecting) && c.chaos->blocked(now)) {
      // A partition window cuts the established socket too, not only new
      // dials — the peer sees the link die, exactly like a real outage.
      close_socket(s, c);
    }
    // Release frames whose chaos delay elapsed into the real outbox. They
    // buffer there even while the socket is down (reconnect semantics).
    while (!c.chaos_hold.empty() && c.chaos_hold.front().release_at <= now) {
      std::vector<std::uint8_t> frame = std::move(c.chaos_hold.front().frame);
      c.chaos_hold.pop_front();
      c.chaos_held_bytes -= frame.size();
      enqueue_frame(c, std::move(frame));
    }
    if (was_up && !c.up) went_down.push_back(c.id);
  }
}

void TcpTransport::drain_outbox(Shard& s, Conn& c) {
  while (!c.outbox.empty()) {
    // Gather the front frame's unsent tail plus whole queued frames into
    // one sendmsg — a reply burst or a batcher flush leaves the process in
    // a single syscall instead of one send() per contiguity break.
    iovec iov[kMaxFlushIov];
    std::size_t niov = 0;
    for (const auto& f : c.outbox) {
      const std::size_t off = niov == 0 ? c.frame_written : 0;
      iov[niov].iov_base =
          const_cast<std::uint8_t*>(f.data()) + off;  // sendmsg won't write
      iov[niov].iov_len = f.size() - off;
      if (++niov == kMaxFlushIov) break;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = niov;
    const ssize_t w = ::sendmsg(c.fd, &msg, MSG_NOSIGNAL);
    if (w > 0) {
      ++s.stats.sendmsg_calls;
      s.stats.bytes_out += static_cast<std::uint64_t>(w);
      c.outbox_bytes -= static_cast<std::size_t>(w);
      c.frame_written += static_cast<std::size_t>(w);
      // Recycle fully-written frames through the shard arena; a partial
      // frame keeps its cursor for the next writable edge.
      while (!c.outbox.empty() && c.frame_written >= c.outbox.front().size()) {
        c.frame_written -= c.outbox.front().size();
        ++s.stats.sendmsg_frames;
        s.arena.release(std::move(c.outbox.front()));
        c.outbox.pop_front();
      }
      continue;
    }
    // EINTR: a signal landed mid-send — the connection is healthy, retry
    // (tearing it down here was the spurious-reconnect bug the signal
    // storm test pins down).
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    close_socket(s, c);
    return;
  }
}

void TcpTransport::read_ready(Shard& s, Conn& c) {
  std::uint8_t buf[kReadChunk];
  while (true) {
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      c.inbox.insert(c.inbox.end(), buf, buf + n);
      s.stats.bytes_in += static_cast<std::uint64_t>(n);
      if (static_cast<std::size_t>(n) < sizeof(buf)) return;
      continue;
    }
    // EINTR is not EOF: retry instead of closing a healthy connection.
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    close_socket(s, c);  // orderly EOF or error
    return;
  }
}

void TcpTransport::accept_ready(Shard& s) {
  while (true) {
    const int fd = ::accept(s.listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;       // signal: the queue may be non-empty
      if (errno == ECONNABORTED) continue;  // peer gave up; try the next one
      return;  // EAGAIN (queue drained) or a resource error; retried on the
               // next readiness report either way
    }
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Conn>();
    conn->id = (static_cast<ConnId>(s.index) << kShardShift) | s.next_seq++;
    conn->fd = fd;
    conn->up = true;
    bool hit = false;
    conn->inbox = s.arena.acquire(&hit);  // accept churn reuses capacity
    if (hit) {
      ++s.stats.arena_hits;
    } else {
      ++s.stats.arena_misses;
    }
    ++s.stats.accepts;
    s.map_fd(fd, conn->id);
    s.conns.emplace(conn->id, std::move(conn));
  }
}

void TcpTransport::run(Shard& s) {
  std::vector<EventLoop::Event> events;

  // Deferred callback work collected under the lock, invoked outside it so
  // handlers may call back into send()/connect_peer()/migrate().
  struct Delivery {
    ConnId conn;
    proto::Frame frame;
  };
  std::vector<ConnId> went_up;
  std::vector<ConnId> went_down;
  std::vector<Delivery> deliveries;
  std::vector<ConnId> to_erase;

  // Batch-flush tick: shard 0 owns the host tick; the wait timeout is
  // clamped to the next tick so staged batches never wait longer than one
  // interval for the flush callback.
  const Duration tick_us = opt_.tick_interval_us;
  Timestamp next_tick = (s.index == 0 && tick_us > 0) ? now_us() + tick_us : 0;

  s.loop->watch(s.wake_pipe[0], true, false);
  if (s.listen_fd >= 0) s.loop->watch(s.listen_fd, true, false);

  while (true) {
    int timeout_ms = -1;
    {
      std::lock_guard lk(s.mu);
      if (s.stopping) break;
      // Adopt connections migrated here by other shards (pinning): they
      // arrive up-and-announced, carrying any undecoded inbox remainder.
      for (auto& cp : s.adopted) {
        s.map_fd(cp->fd, cp->id);
        s.conns.emplace(cp->id, std::move(cp));
      }
      s.adopted.clear();
      const Timestamp now = now_us();
      Timestamp next_timer = 0;
      for (auto& [id, cp] : s.conns) {
        Conn& c = *cp;
        if (c.fd < 0) {
          if (!c.outbound) continue;
          if (c.chaos != nullptr && c.chaos->blocked(now)) {
            // Partition window: don't redial; recheck shortly.
            c.retry_at = now + 5'000;
          } else if (c.retry_at <= now) {
            dial(s, c, now);
          }
        }
        if (!c.chaos_hold.empty() &&
            (next_timer == 0 || c.chaos_hold.front().release_at < next_timer)) {
          next_timer = c.chaos_hold.front().release_at;
        }
        if (c.fd >= 0) {
          // Interest delta only — EventLoop::watch no-ops when unchanged,
          // so the scan costs one epoll_ctl per actual transition.
          s.loop->watch(c.fd, true, c.connecting || c.outbox_bytes > 0);
        } else if (c.retry_at > 0 &&
                   (next_timer == 0 || c.retry_at < next_timer)) {
          next_timer = c.retry_at;
        }
      }
      if (next_tick > 0 && (next_timer == 0 || next_tick < next_timer)) {
        next_timer = next_tick;
      }
      if (next_timer > 0) {
        const Timestamp now2 = now_us();
        timeout_ms = next_timer <= now2
                         ? 0
                         : static_cast<int>((next_timer - now2) / 1000 + 1);
      }
      // A dial that completed synchronously still needs its on_connected
      // announcement (made in the post-wait section): don't block for it.
      for (auto& [id, cp] : s.conns) {
        if (cp->up && !cp->announced) {
          timeout_ms = 0;
          break;
        }
      }
    }

    // Driven-host pass (outside the shard lock): service the NodeGroup
    // worker this loop owns; its next engine timer bounds the sleep. Work
    // the pass produced (replies into this shard's outboxes) left a wake
    // in the pipe, so the wait below returns immediately.
    if (cb_.on_loop_pass) {
      const Timestamp worker_deadline = cb_.on_loop_pass(s.index);
      if (worker_deadline > 0) {
        const Timestamp now2 = now_us();
        const int ms =
            worker_deadline <= now2
                ? 0
                : static_cast<int>((worker_deadline - now2) / 1000 + 1);
        if (timeout_ms < 0 || ms < timeout_ms) timeout_ms = ms;
      }
    }

    s.loop->wait(timeout_ms, events);

    went_up.clear();
    went_down.clear();
    deliveries.clear();
    to_erase.clear();
    {
      std::lock_guard lk(s.mu);
      if (s.stopping) break;
      chaos_pass(s, now_us(), went_down);
      bool accept_pending = false;
      for (const EventLoop::Event& ev : events) {
        if (ev.fd == s.wake_pipe[0]) {
          char buf[256];
          while (true) {
            const ssize_t n = ::read(s.wake_pipe[0], buf, sizeof(buf));
            if (n > 0) continue;
            if (n < 0 && errno == EINTR) continue;  // drain fully, then stop
            break;  // EAGAIN: pipe empty
          }
          continue;
        }
        if (ev.fd == s.listen_fd) {
          // Accept after the connection events: a recycled fd number can
          // then never receive a stale event meant for its predecessor.
          accept_pending = true;
          continue;
        }
        const ConnId cid = s.conn_at_fd(ev.fd);
        if (cid == kInvalidConn) continue;  // closed earlier this pass
        auto it = s.conns.find(cid);
        if (it == s.conns.end()) continue;
        Conn& c = *it->second;
        if (c.fd != ev.fd) continue;
        if (c.connecting && (ev.writable || ev.error)) {
          int err = 0;
          socklen_t len = sizeof(err);
          ::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len);
          if (err == 0 && !ev.error) {
            mark_established(s, c);
          } else {
            close_socket(s, c);
          }
          continue;
        }
        const bool was_up = c.up;
        if (ev.error && !ev.readable) {
          close_socket(s, c);
        } else {
          if (ev.readable) read_ready(s, c);
          if (c.up && ev.writable) drain_outbox(s, c);
        }

        // Cut the inbox into decoded frames.
        std::size_t off = 0;
        while (c.up && off < c.inbox.size()) {
          proto::DecodeResult res =
              proto::decode_frame(c.inbox.data() + off, c.inbox.size() - off);
          if (res.status == proto::DecodeResult::Status::kOk) {
            ++s.stats.frames_in;
            deliveries.push_back(Delivery{c.id, std::move(res.frame)});
            off += res.consumed;
            continue;
          }
          if (res.status == proto::DecodeResult::Status::kNeedMore) break;
          ++s.stats.decode_errors;
          close_socket(s, c);
          break;
        }
        if (off > 0 && c.fd >= 0) {
          c.inbox.erase(c.inbox.begin(),
                        c.inbox.begin() + static_cast<std::ptrdiff_t>(off));
        }
        if (was_up && !c.up) went_down.push_back(c.id);
      }
      if (accept_pending) accept_ready(s);
      // Optimistic flush: drain every queued outbox now instead of waiting
      // for the next writable event. Multishot-poll readiness (kUring) is
      // edge-like — a socket that stayed writable never re-posts a CQE — so
      // write interest must mean "kernel buffer filled up", whose clearing
      // IS a real edge; on epoll/poll this also saves one loop pass of
      // latency per reply burst.
      for (auto& [id, cp] : s.conns) {
        Conn& c = *cp;
        if (c.fd < 0 || !c.up || c.outbox_bytes == 0) continue;
        const bool was_up = c.up;
        drain_outbox(s, c);
        if (was_up && !c.up) went_down.push_back(c.id);
      }
      // Announce newly established sockets (accepted, connected or
      // reconnected — close_socket resets `announced`) and reap dead
      // inbound connections (the remote owns their recovery).
      for (auto& [id, cp] : s.conns) {
        Conn& c = *cp;
        if (c.up && !c.announced) {
          c.announced = true;
          went_up.push_back(c.id);
        }
        if (!c.outbound && !c.up) to_erase.push_back(id);
      }
      for (const ConnId id : to_erase) {
        auto dead = s.conns.find(id);
        if (dead == s.conns.end()) continue;
        recycle_conn(s, *dead->second);
        s.conns.erase(dead);
      }
    }

    for (const ConnId id : went_up) {
      if (cb_.on_connected) cb_.on_connected(id);
    }
    for (Delivery& d : deliveries) {
      if (cb_.on_frame) cb_.on_frame(d.conn, std::move(d.frame));
    }
    for (const ConnId id : went_down) {
      if (cb_.on_disconnected) cb_.on_disconnected(id);
    }
    // Hand over connections on_frame marked for migration — after the
    // deliveries above, so every frame this shard decoded for them was
    // delivered before the target shard can read more (FIFO across the
    // move). The rename is announced from here, the source thread.
    for (const auto& [from, to] : hand_over_migrations(s)) {
      if (cb_.on_migrated) cb_.on_migrated(from, to);
    }
    if (next_tick > 0 && now_us() >= next_tick) {
      next_tick = now_us() + tick_us;
      if (cb_.on_tick) cb_.on_tick();
    }
  }

  // Best-effort final drain: push out what shutdown staged (a host flushes
  // its batchers right before stop()) without blocking — anything the
  // kernel won't take now dies with the process, as before.
  {
    std::lock_guard lk(s.mu);
    for (auto& [id, cp] : s.conns) {
      if (cp->fd >= 0 && cp->up) drain_outbox(s, *cp);
    }
  }
}

// ------------------------------------------------------------ LinkBatcher ---

void LinkBatcher::add(NodeId from, NodeId to, const proto::Message& m) {
  std::lock_guard lk(mu_);
  writer_.add(from, to, m);
  ++stats_.messages;
  if (writer_.count() >= policy_.max_messages ||
      writer_.body_bytes() >= policy_.max_bytes) {
    flush_locked();
  }
}

void LinkBatcher::flush() {
  std::lock_guard lk(mu_);
  retry_pending_locked();
  if (!writer_.empty()) flush_locked();
}

void LinkBatcher::flush_locked() {
  // Encode into a recycled shard-arena buffer: the flushed frame's vector
  // returns there once the transport writes it, closing the reuse loop.
  std::vector<std::uint8_t> frame = transport_.acquire_buffer(conn_);
  proto::BatchEncodeStats split;
  writer_.flush_to(frame, &split);
  stats_.protocol_bytes += split.protocol_bytes;
  stats_.overhead_bytes += split.overhead_bytes;
  ++stats_.batches;
  // FIFO: while older batches are parked, new ones must queue behind them
  // even if the transport would accept them now.
  if (!pending_.empty()) {
    park_locked(std::move(frame));
    return;
  }
  if (!transport_.try_send(conn_, frame)) {
    // Backpressure: park and re-offer on later ticks instead of dropping —
    // a throttled link trades latency for losslessness (§II-C channels).
    ++stats_.send_failures;
    park_locked(std::move(frame));
  }
}

void LinkBatcher::park_locked(std::vector<std::uint8_t> frame) {
  if (pending_bytes_ + frame.size() > policy_.max_pending_bytes) {
    ++stats_.dropped_batches;
    return;
  }
  pending_bytes_ += frame.size();
  pending_.push_back(std::move(frame));
}

void LinkBatcher::retry_pending_locked() {
  while (!pending_.empty() && transport_.try_send(conn_, pending_.front())) {
    pending_bytes_ -= pending_.front().size();
    ++stats_.retried_batches;
    pending_.pop_front();
  }
}

BatchStats LinkBatcher::stats() const {
  std::lock_guard lk(mu_);
  return stats_;
}

std::size_t LinkBatcher::pending_bytes() const {
  std::lock_guard lk(mu_);
  return pending_bytes_;
}

}  // namespace pocc::net
