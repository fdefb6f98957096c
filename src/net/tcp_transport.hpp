// Sharded TCP transport for the networked deployment (poccd, pocc_loadgen,
// and the in-process e2e tests).
//
// The transport runs Options::num_loops event-loop shards (default 1 — the
// original single-threaded shape). Each shard owns one net::EventLoop
// (epoll, poll(2) or io_uring — Options::backend), one wake pipe, one
// SO_REUSEPORT listening socket, and a disjoint set of connections; a connection is
// only ever touched by its shard's thread, other threads interact through
// the thread-safe send()/connect_peer() and the callbacks (invoked on the
// owning shard's thread). Responsibilities:
//
//   * framing      — inbound bytes are cut into frames by proto::decode_frame
//                    and delivered one decoded Frame at a time,
//   * reconnect    — outbound connections dialed with connect_peer() survive
//                    peer restarts: the ConnId names the *link*, the socket
//                    behind it redials with exponential backoff, and frames
//                    sent while down are buffered so the per-link FIFO the
//                    protocol assumes (§II-C) is preserved across blips,
//   * backpressure — each connection's outbound buffer is capped
//                    (max_outbox_bytes); when a peer stops draining, send()
//                    rejects further frames and reports the overflow instead
//                    of growing without bound,
//   * pinning      — an accepted connection can be migrated to a chosen
//                    shard (migrate()), so a host can co-locate a client's
//                    socket with the worker owning its partition and run
//                    socket → decode → engine on one thread.
//
// A ConnId encodes its owning shard in the upper bits, so routing a send
// to the right shard is a shift, not a global map. A decode error on a
// connection is treated as corruption: the connection is closed (and
// redialed if it is an outbound link). Accepted (inbound) connections get
// fresh ConnIds and never redial — the remote owns recovery.
//
// Syscall discipline: every ::sendmsg/::recv/::accept and wake-pipe
// read/write retries on EINTR — a signal landing mid-syscall must never
// tear down a healthy connection (scripts/check_syscalls.sh enforces that
// new raw syscall sites go through audited files like this one).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/chaos.hpp"
#include "net/event_loop.hpp"
#include "proto/codec.hpp"

namespace pocc::net {

/// Identifier of one transport connection: shard index in the top bits,
/// per-shard sequence below. Outbound ids are stable across reconnects;
/// inbound ids are per-accepted-socket (and change on migrate()).
using ConnId = std::uint64_t;

inline constexpr ConnId kInvalidConn = 0;

struct TransportStats {
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t accepts = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t send_overflows = 0;
  /// Frames dropped because a *down* link's reconnect buffer hit its cap
  /// (max_down_buffer_bytes) — a long partition cannot buffer unboundedly.
  std::uint64_t down_buffer_drops = 0;
  /// Inbound connections re-homed onto another shard (pinning).
  std::uint64_t migrations = 0;
  /// Scatter-gather flush accounting: sendmsg syscalls issued and frames
  /// fully flushed through them — frames/call is the coalescing ratio a
  /// reply burst or LinkBatcher flush achieves.
  std::uint64_t sendmsg_calls = 0;
  std::uint64_t sendmsg_frames = 0;
  /// Buffer-arena accounting: acquisitions served from the pool vs fresh
  /// allocations (connection churn at 100k sockets lives or dies on this).
  std::uint64_t arena_hits = 0;
  std::uint64_t arena_misses = 0;
  /// io_uring backend accounting, summed from the shard EventLoops (all
  /// zero on kEpoll/kPoll).
  std::uint64_t uring_enters = 0;
  std::uint64_t uring_sqes = 0;
  std::uint64_t uring_cqes = 0;
  std::uint64_t uring_no_syscall_waits = 0;
  /// Chaos-injection accounting (zero unless set_chaos() armed a link).
  std::uint64_t chaos_delayed = 0;     // frames held before transmission
  std::uint64_t chaos_duplicates = 0;  // frames transmitted twice
  std::uint64_t chaos_resets = 0;      // connections torn down by chaos

  TransportStats& operator+=(const TransportStats& o) {
    frames_in += o.frames_in;
    frames_out += o.frames_out;
    bytes_in += o.bytes_in;
    bytes_out += o.bytes_out;
    accepts += o.accepts;
    reconnects += o.reconnects;
    decode_errors += o.decode_errors;
    send_overflows += o.send_overflows;
    down_buffer_drops += o.down_buffer_drops;
    migrations += o.migrations;
    sendmsg_calls += o.sendmsg_calls;
    sendmsg_frames += o.sendmsg_frames;
    arena_hits += o.arena_hits;
    arena_misses += o.arena_misses;
    uring_enters += o.uring_enters;
    uring_sqes += o.uring_sqes;
    uring_cqes += o.uring_cqes;
    uring_no_syscall_waits += o.uring_no_syscall_waits;
    chaos_delayed += o.chaos_delayed;
    chaos_duplicates += o.chaos_duplicates;
    chaos_resets += o.chaos_resets;
    return *this;
  }
};

/// Per-shard pool of reusable byte buffers: connection inboxes and finished
/// outbox frames return here instead of freeing, and acquire() hands their
/// capacity to the next conn/frame — at 100k-connection churn the allocator
/// otherwise sees one malloc/free pair per frame and per accept.
///
/// Ownership rule: the arena never holds a buffer that is still reachable
/// from a Conn — release() is called exactly where the owning reference
/// dies (frame fully flushed, connection reaped). Guarded by the owning
/// shard's mutex like everything else it is touched with.
class BufferArena {
 public:
  /// Pop a pooled buffer (cleared; capacity retained) or make a fresh one.
  /// `*hit` reports which, for the arena_hits/arena_misses counters.
  [[nodiscard]] std::vector<std::uint8_t> acquire(bool* hit) {
    if (free_.empty()) {
      *hit = false;
      return {};
    }
    *hit = true;
    std::vector<std::uint8_t> buf = std::move(free_.back());
    free_.pop_back();
    pooled_bytes_ -= buf.capacity();
    buf.clear();
    return buf;
  }

  /// Return a dead buffer's capacity to the pool (bounded; oversized or
  /// overflow buffers are simply freed).
  void release(std::vector<std::uint8_t>&& buf) {
    if (buf.capacity() == 0 || buf.capacity() > kMaxPooledBuffer ||
        free_.size() >= kMaxPooledBuffers ||
        pooled_bytes_ + buf.capacity() > kMaxPooledBytes) {
      return;  // let the vector free on scope exit
    }
    pooled_bytes_ += buf.capacity();
    free_.push_back(std::move(buf));
  }

  [[nodiscard]] std::size_t pooled() const { return free_.size(); }

 private:
  // LIFO: the hottest (cache-warm, grown-to-working-set) buffer is reused
  // first. Caps bound idle memory, not throughput.
  static constexpr std::size_t kMaxPooledBuffers = 4096;
  static constexpr std::size_t kMaxPooledBuffer = 1u << 20;
  static constexpr std::size_t kMaxPooledBytes = 32u << 20;
  std::vector<std::vector<std::uint8_t>> free_;
  std::size_t pooled_bytes_ = 0;
};

class TcpTransport {
 public:
  struct Callbacks {
    /// One decoded frame arrived on `conn`. Owning-shard-thread context:
    /// keep it short (enqueue and return) unless the host deliberately
    /// drives engine work here (the driven NodeGroup mode).
    std::function<void(ConnId, proto::Frame)> on_frame;
    /// Outbound link established (first connect or reconnect), or inbound
    /// connection accepted.
    std::function<void(ConnId)> on_connected;
    /// Connection lost. Outbound links will redial; inbound ids are dead.
    std::function<void(ConnId)> on_disconnected;
    /// Fired on shard 0's thread every Options::tick_interval_us (when
    /// non-zero) — the time axis of the batch flush policy: hosts flush
    /// their staged LinkBatcher batches here, bounding how long a coalesced
    /// message can wait for companions.
    std::function<void()> on_tick;
    /// Fired once per loop iteration on every shard, outside the shard
    /// lock — the driven-NodeGroup seam: the host services the worker that
    /// owns this loop (timers, inbox drain, durability) and returns the
    /// worker's next timer deadline (absolute steady µs; 0 = none), which
    /// bounds how long the loop may sleep.
    std::function<Timestamp(std::uint32_t loop)> on_loop_pass;
    /// An inbound connection finished migrate(): `from` is dead, the same
    /// socket now lives on as `to` on the target shard. Delivered on the
    /// *source* shard's thread, after the connection's final frames there.
    std::function<void(ConnId from, ConnId to)> on_migrated;
  };

  struct Options {
    /// Event-loop shards. 1 keeps the original single-threaded transport;
    /// poccd passes the NodeGroup worker count so loop i drives worker i.
    std::uint32_t num_loops = 1;
    /// Readiness backend of every shard (tests exercise kPoll explicitly;
    /// deployments keep the platform default).
    EventLoop::Backend backend = EventLoop::default_backend();
    /// Per-connection cap on buffered unsent bytes (backpressure bound).
    std::size_t max_outbox_bytes = 64u << 20;
    /// Tighter cap applied while a link has no established socket: frames
    /// buffered across an outage are bounded, and overflow is dropped with
    /// an accounted counter (stats().down_buffer_drops) instead of letting
    /// a long partition grow the outbox to max_outbox_bytes.
    std::size_t max_down_buffer_bytes = 8u << 20;
    /// Reconnect backoff: the *ceiling* doubles deterministically per
    /// failure, but each retry draws uniformly from [min, ceiling] (full
    /// jitter) so links cut by one partition don't redial in lockstep when
    /// it heals.
    Duration reconnect_backoff_min_us = 20'000;
    Duration reconnect_backoff_max_us = 1'000'000;
    /// Seed of the backoff-jitter Rngs (determinism in tests/campaigns).
    std::uint64_t seed = 0xbac0'ff5eULL;
    /// Period of Callbacks::on_tick; 0 disables the tick.
    Duration tick_interval_us = 0;
  };

  TcpTransport(Callbacks callbacks, Options options);
  ~TcpTransport();

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Bind + listen on `port` (0 = ephemeral), all interfaces — one
  /// SO_REUSEPORT socket per shard, so the kernel load-balances accepts
  /// across the loops. Call before start(). Returns the actually bound
  /// port. Asserts on bind failure.
  std::uint16_t listen(std::uint16_t port);

  /// Register a persistent outbound link (dialed once the loop runs;
  /// redials forever with backoff). `loop` pins the link to a shard
  /// (server-to-server FIFO links get a designated owner); -1 assigns
  /// round-robin. Call before or after start().
  ConnId connect_peer(std::string host, std::uint16_t port,
                      std::int32_t loop = -1);

  /// Frame transmitted first on `conn` every time its socket is established
  /// (initial connect and every reconnect), ahead of any buffered frames —
  /// identity announcements (NodeHello/ClientHello) that must precede
  /// protocol traffic.
  void set_greeting(ConnId conn, std::vector<std::uint8_t> frame);

  /// Arm wire-level fault injection on an outbound link: every frame sent
  /// on `conn` passes through `link` (delay/duplicate/reset verdicts), and
  /// while the link's schedule blocks this direction the socket is torn
  /// down and not redialed (a partition window). Call before traffic flows;
  /// nullptr disarms. Thread-safe.
  void set_chaos(ConnId conn, std::shared_ptr<ChaosLink> link);

  void start();
  void stop();

  /// Queue one already-encoded frame. Thread-safe. Returns false when the
  /// connection is unknown/dead-inbound or its outbox is over the cap (the
  /// frame is dropped and counted in stats().send_overflows).
  bool send(ConnId conn, std::vector<std::uint8_t> frame) {
    return try_send(conn, frame);
  }

  /// Like send(), but leaves `frame` intact when the transport refuses it —
  /// the caller can park and retry (LinkBatcher's slow-peer queue) instead
  /// of losing the bytes. Moves from `frame` only on acceptance.
  bool try_send(ConnId conn, std::vector<std::uint8_t>& frame);

  /// Pop a recycled encode buffer (empty, capacity retained) from the arena
  /// of `conn`'s shard — the allocation-free counterpart of send(): frames
  /// the transport finishes writing park their buffers there, and encoding
  /// the next frame into one closes the loop. Thread-safe; falls back to a
  /// fresh vector for unknown conns. Handing the buffer back via send() is
  /// optional (it is an ordinary vector).
  [[nodiscard]] std::vector<std::uint8_t> acquire_buffer(ConnId conn);

  /// Re-home an inbound connection onto shard `target_loop` (connection
  /// pinning: the host moves a client's socket to the loop driving the
  /// worker that owns its partition). Only valid from within a callback on
  /// the connection's current owning shard — in practice, from on_frame of
  /// the pinning handshake. The handoff happens after the current loop
  /// pass delivers the connection's remaining decoded frames, so frame
  /// order is preserved across the move; the connection then answers to a
  /// new ConnId, announced via Callbacks::on_migrated. Returns false for
  /// unknown/outbound connections or an out-of-range target.
  bool migrate(ConnId conn, std::uint32_t target_loop);

  /// True when the connection currently has an established socket.
  [[nodiscard]] bool connected(ConnId conn) const;

  [[nodiscard]] std::uint16_t listen_port() const { return listen_port_; }
  /// Aggregated over every shard.
  [[nodiscard]] TransportStats stats() const;

  [[nodiscard]] std::uint32_t num_loops() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  /// Shard owning `conn` (encoded in the id).
  [[nodiscard]] static std::uint32_t loop_of(ConnId conn) {
    return static_cast<std::uint32_t>(conn >> kShardShift);
  }
  /// Interrupt shard `loop`'s wait (the driven NodeGroup's enqueue wake).
  void wake_loop(std::uint32_t loop);
  /// Native handles of the running loop threads (signal-storm tests aim
  /// pthread_kill at them). Valid between start() and stop().
  [[nodiscard]] std::vector<std::thread::native_handle_type>
  loop_thread_handles();

 private:
  static constexpr unsigned kShardShift = 48;

  struct Conn {
    ConnId id = kInvalidConn;
    int fd = -1;
    bool outbound = false;       // redial on loss
    bool connecting = false;     // non-blocking connect in flight
    bool up = false;             // socket established
    bool announced = false;      // on_connected delivered for this socket
    std::int32_t migrate_to = -1;  // pending migrate() target shard
    std::string host;            // outbound only
    std::uint16_t port = 0;      // outbound only
    Timestamp retry_at = 0;      // next dial attempt (steady us)
    Duration backoff_us = 0;
    std::vector<std::uint8_t> inbox;  // undecoded inbound bytes
    // Outbox as a deque of whole frames, flushed with one scatter-gather
    // sendmsg per burst: frames move in from try_send() without a copy and
    // their buffers recycle through the shard arena once written. A
    // disconnect mid-frame resets frame_written to 0 so the reconnected
    // socket restarts the front frame from byte 0, never resumes its tail
    // (which would garble the peer's framing).
    std::deque<std::vector<std::uint8_t>> outbox;
    std::size_t outbox_bytes = 0;   // unsent bytes across all frames
    std::size_t frame_written = 0;  // bytes of outbox.front() already sent
    std::vector<std::uint8_t> greeting;  // sent first on every establish

    // --- chaos injection (null on unarmed links) ---
    std::shared_ptr<ChaosLink> chaos;
    struct HeldFrame {
      Timestamp release_at = 0;
      std::vector<std::uint8_t> frame;
    };
    /// Frames the chaos link is holding back; released into the outbox in
    /// FIFO order when their delay elapses (ChaosLink clamps release times
    /// monotone, so the front is always the earliest).
    std::deque<HeldFrame> chaos_hold;
    std::size_t chaos_held_bytes = 0;  // counted against the outbox caps
    bool chaos_reset_pending = false;  // tear down on the next loop pass
  };

  /// One event-loop shard: thread, readiness set, wake pipe, listener and
  /// the connections it owns. A shard's conns/by_fd/stats are guarded by
  /// its mu; the loop thread is the only closer of its sockets.
  struct Shard {
    std::uint32_t index = 0;
    std::unique_ptr<EventLoop> loop;
    int wake_pipe[2] = {-1, -1};
    int listen_fd = -1;
    mutable std::mutex mu;
    std::unordered_map<ConnId, std::unique_ptr<Conn>> conns;
    /// fd → owning conn for live sockets: flat and fd-indexed (lazily grown
    /// to the highest fd seen) so the per-event lookup on the wait path is
    /// a load, not a hash — sized-for-100k-fds bookkeeping.
    std::vector<ConnId> by_fd;
    BufferArena arena;
    std::uint64_t next_seq = 1;

    void map_fd(int fd, ConnId id) {
      const auto idx = static_cast<std::size_t>(fd);
      if (idx >= by_fd.size()) {
        by_fd.resize(std::max(idx + 1, by_fd.size() * 2), kInvalidConn);
      }
      by_fd[idx] = id;
    }
    void unmap_fd(int fd) {
      const auto idx = static_cast<std::size_t>(fd);
      if (idx < by_fd.size()) by_fd[idx] = kInvalidConn;
    }
    [[nodiscard]] ConnId conn_at_fd(int fd) const {
      const auto idx = static_cast<std::size_t>(fd);
      return fd >= 0 && idx < by_fd.size() ? by_fd[idx] : kInvalidConn;
    }
    Rng backoff_rng{0};
    TransportStats stats;
    bool stopping = false;
    /// Connections handed over by migrate(), adopted at the top of the
    /// next loop pass (guarded by mu).
    std::vector<std::unique_ptr<Conn>> adopted;
    std::thread thread;
  };

  void run(Shard& s);
  void wake(Shard& s);
  void dial(Shard& s, Conn& c, Timestamp now);
  void mark_established(Shard& s, Conn& c);
  void close_socket(Shard& s, Conn& c);
  /// Append one framed message to the outbox (no copy: the frame buffer
  /// itself becomes the outbox entry).
  static void enqueue_frame(Conn& c, std::vector<std::uint8_t> frame);
  /// Return a dead connection's buffers to the shard arena (call right
  /// before the Conn is erased).
  static void recycle_conn(Shard& s, Conn& c);
  /// Schedule the next dial attempt with full-jitter backoff.
  void arm_backoff(Shard& s, Conn& c, Timestamp now);
  /// Chaos pass of one loop iteration: apply pending resets, enforce
  /// partition windows, release due held frames. Collects lost links.
  void chaos_pass(Shard& s, Timestamp now, std::vector<ConnId>& went_down);
  void drain_outbox(Shard& s, Conn& c);
  void read_ready(Shard& s, Conn& c);
  void accept_ready(Shard& s);
  /// Move conns marked by migrate() to their target shards; returns the
  /// (old, new) id pairs to announce.
  std::vector<std::pair<ConnId, ConnId>> hand_over_migrations(Shard& s);
  [[nodiscard]] Shard* shard_of(ConnId conn) const;
  [[nodiscard]] static Timestamp now_us();

  Callbacks cb_;
  Options opt_;

  std::uint16_t listen_port_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint32_t> next_dial_shard_{0};
  std::atomic<bool> started_{false};
};

/// Coalescing flush policy of one peer link: a staged batch is flushed as
/// soon as it holds max_messages messages or max_bytes of staged body,
/// whichever comes first; whatever is still staged when the transport tick
/// fires goes out then. The tick rides the event-loop timeout, which has
/// millisecond granularity, so the effective straggler delay is
/// ~max(max_delay_us, 1ms) — the default is 1ms accordingly, two orders of
/// magnitude under inter-DC RTTs while letting a loaded link coalesce
/// dozens of Replicates into one frame (Okapi / Cure-style interval
/// aggregation).
struct BatchPolicy {
  std::size_t max_messages = 64;
  std::size_t max_bytes = 48u << 10;
  /// The time threshold — hosts pass it as Options::tick_interval_us.
  Duration max_delay_us = 1'000;
  /// Slow-peer isolation: flushed batches the transport refuses
  /// (backpressure) are parked in a per-link retry queue up to this many
  /// bytes and re-offered on later ticks, so a throttled replica link
  /// sheds load by *delaying* its own batches — not by dropping them, and
  /// not by stalling siblings (each link parks independently). Beyond the
  /// cap batches are dropped and counted (BatchStats::dropped_batches).
  std::size_t max_pending_bytes = 16u << 20;
};

/// Accounting of one link's batching (aggregated into poccd exit stats).
struct BatchStats {
  std::uint64_t messages = 0;
  std::uint64_t batches = 0;
  std::uint64_t protocol_bytes = 0;  // §V-charged bytes inside batches
  std::uint64_t overhead_bytes = 0;  // every other frame byte, as written
  std::uint64_t send_failures = 0;   // flushes rejected by backpressure
  std::uint64_t retried_batches = 0;  // parked batches later accepted
  std::uint64_t dropped_batches = 0;  // parked batches lost to the cap

  BatchStats& operator+=(const BatchStats& o) {
    messages += o.messages;
    batches += o.batches;
    protocol_bytes += o.protocol_bytes;
    overhead_bytes += o.overhead_bytes;
    send_failures += o.send_failures;
    retried_batches += o.retried_batches;
    dropped_batches += o.dropped_batches;
    return *this;
  }
};

/// Per-link coalescer: worker threads add() routed server-to-server
/// messages (encoded immediately into the staged frame — no copy at flush
/// time); the staged batch leaves as ONE Batch wire frame when a size
/// threshold trips or the transport tick fires. Thread-safe. FIFO holds
/// end to end: adds are serialized by the batcher mutex, flushed frames
/// enter the transport outbox in flush order, and the transport preserves
/// frame order across reconnects (buffered while a link is down).
class LinkBatcher {
 public:
  LinkBatcher(TcpTransport& transport, ConnId conn, BatchPolicy policy)
      : transport_(transport), conn_(conn), policy_(policy) {}

  LinkBatcher(const LinkBatcher&) = delete;
  LinkBatcher& operator=(const LinkBatcher&) = delete;

  /// Stage one message; flushes inline when a size threshold trips.
  void add(NodeId from, NodeId to, const proto::Message& m);

  /// Flush whatever is staged (no-op when empty) after re-offering any
  /// parked batches. Called from the transport tick and at shutdown.
  void flush();

  [[nodiscard]] BatchStats stats() const;

  /// Bytes of flushed-but-unaccepted batches parked on this link — the
  /// load-shedding signal the host's admission control reads (a congested
  /// replication link pushes back on *client* admission, not on siblings).
  [[nodiscard]] std::size_t pending_bytes() const;

 private:
  void flush_locked();
  void park_locked(std::vector<std::uint8_t> frame);
  void retry_pending_locked();

  TcpTransport& transport_;
  ConnId conn_;
  BatchPolicy policy_;
  mutable std::mutex mu_;
  proto::BatchWriter writer_;
  BatchStats stats_;
  std::deque<std::vector<std::uint8_t>> pending_;  // FIFO ahead of staged
  std::size_t pending_bytes_ = 0;
};

}  // namespace pocc::net
