// pocc_chaosproxy — a frame-aware TCP proxy that degrades the links of a
// real multi-process poccd cluster with the same seed-deterministic chaos
// model the in-process campaign uses (net/chaos.hpp): per-link propagation
// delay and jitter, segment loss modeled as RTO stalls, reorder
// head-of-line blocking, a bandwidth token bucket, duplicate frames,
// mid-stream connection resets, and timed partition windows driven by a
// fault::FaultPlan schedule.
//
//   pocc_chaosproxy --seed N --route LPORT:HOST:TPORT:SRCDC:DSTDC [...]
//                   [--dcs N] [--parts N] [--horizon-s S] [--duration-s S]
//                   [--delay-us N] [--jitter-us N] [--loss P] [--bw BYTES/S]
//                   [--reorder-us N] [--dup P] [--reset P] [--verbose]
//
// Each --route opens one listening port; every connection accepted there is
// proxied to HOST:TPORT with chaos applied INDEPENDENTLY per direction
// (SRCDC->DSTDC on client-to-target bytes, the reverse on replies), so an
// asymmetric partition blocks one direction and leaves the other flowing.
// Point the cluster config's peer addresses at the proxy's listen ports and
// the deployment runs under chaos without a line of server change.
//
// Frames (varint length prefix + body, proto/codec.hpp) are cut out of the
// byte stream with the codec's own frame cutter (proto::cut_frame) and
// re-emitted whole after their chaos delay — the proxy never splits a
// frame, so the peer's framing survives everything except the deliberate
// resets. A stream whose length prefix is malformed is corrupt: the proxy
// closes that connection, as either endpoint's decoder would. The plan hash
// is printed at startup; re-running with the same --seed replays the
// identical schedule.
//
// Losslessness: a partition window STALLS established streams (frames keep
// buffering, release waits for the window to close — bounded by the plan's
// window cap) and refuses NEW connections; it never cuts live ones. Cutting
// would drop bytes the proxy already TCP-acked to the sender — a silent
// hole in a stream between two live processes, which no crash-recovery
// handshake repairs and the protocol's lossless FIFO assumption (§II-C)
// cannot survive. For the same reason --reset (like --dup) is only safe on
// CLIENT-facing routes, where the client's idempotent deadline/retry layer
// absorbs the loss; leave both at 0 on server-to-server routes.
//
// Exit: runs until SIGINT/SIGTERM. Usage errors exit 4.
#include <arpa/inet.h>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "net/chaos.hpp"
#include "proto/codec.hpp"

namespace {

using namespace pocc;

volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int /*sig*/) { g_stop = 1; }

Timestamp now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --seed N --route LPORT:HOST:TPORT:SRCDC:DSTDC [--route ...]\n"
      "          [--dcs N] [--parts N] [--horizon-s S] [--duration-s S]\n"
      "          [--delay-us N] [--jitter-us N] [--loss P] [--bw BYTES_PER_S]\n"
      "          [--reorder-us N] [--dup P] [--reset P] [--verbose]\n",
      argv0);
  return 4;
}

struct Route {
  std::uint16_t listen_port = 0;
  std::string target_host;
  std::uint16_t target_port = 0;
  DcId src_dc = 0;
  DcId dst_dc = 0;
  int listen_fd = -1;
};

bool set_nonblock(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// One direction of a proxied connection: stream bytes in, whole frames out
/// after their chaos verdicts.
struct Pipe {
  std::vector<std::uint8_t> inbuf;  // undecoded stream prefix
  struct Held {
    Timestamp release_at = 0;
    std::vector<std::uint8_t> frame;  // prefix + body, emitted atomically
  };
  std::deque<Held> heldq;            // FIFO (ChaosLink clamps monotone)
  std::vector<std::uint8_t> outbuf;  // released bytes being written
  std::size_t out_head = 0;
  std::unique_ptr<net::ChaosLink> chaos;
  bool reset_pending = false;
};

struct Conn {
  int client_fd = -1;
  int target_fd = -1;
  bool target_connecting = true;
  const Route* route = nullptr;
  Pipe fwd;  // client -> target (src_dc -> dst_dc)
  Pipe rev;  // target -> client (dst_dc -> src_dc)
  bool dead = false;
};

/// Cut complete frames off the front of `p.inbuf`, run each through the
/// chaos link, and queue the survivors for release. Returns false when the
/// stream is corrupt (malformed length prefix).
bool ingest(Pipe& p, Timestamp now) {
  std::size_t at = 0;
  bool ok = true;
  while (at < p.inbuf.size()) {
    const proto::FrameCut cut =
        proto::cut_frame(p.inbuf.data() + at, p.inbuf.size() - at);
    if (cut.status != proto::FrameStatus::kOk) {
      ok = cut.status == proto::FrameStatus::kNeedMore;
      break;
    }
    const std::size_t total = cut.frame_bytes;
    const net::ChaosVerdict v = p.chaos->on_frame(total, now);
    if (v.reset) p.reset_pending = true;
    std::vector<std::uint8_t> frame(p.inbuf.begin() + at,
                                    p.inbuf.begin() + at + total);
    if (v.duplicate) {
      p.heldq.push_back(Pipe::Held{now + v.delay_us, frame});
    }
    p.heldq.push_back(Pipe::Held{now + v.delay_us, std::move(frame)});
    at += total;
  }
  p.inbuf.erase(p.inbuf.begin(), p.inbuf.begin() + at);
  return ok;
}

/// Move due held frames into the write buffer.
void release_due(Pipe& p, Timestamp now) {
  while (!p.heldq.empty() && p.heldq.front().release_at <= now) {
    auto& f = p.heldq.front().frame;
    p.outbuf.insert(p.outbuf.end(), f.begin(), f.end());
    p.heldq.pop_front();
  }
  if (p.out_head > 0 && p.out_head == p.outbuf.size()) {
    p.outbuf.clear();
    p.out_head = 0;
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 1;
  std::vector<Route> routes;
  TopologyConfig topo;
  double horizon_s = 10.0;
  double duration_s = 3600.0;
  net::ChaosProfile profile;
  bool verbose = false;

  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", argv[i]);
        std::exit(4);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(value(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--route") == 0) {
      // LPORT:HOST:TPORT:SRCDC:DSTDC
      std::string spec = value();
      Route r;
      char host[256] = {0};
      unsigned lp = 0, tp = 0, src = 0, dst = 0;
      if (std::sscanf(spec.c_str(), "%u:%255[^:]:%u:%u:%u", &lp, host, &tp,
                      &src, &dst) != 5) {
        std::fprintf(stderr, "chaosproxy: bad --route '%s'\n", spec.c_str());
        return 4;
      }
      r.listen_port = static_cast<std::uint16_t>(lp);
      r.target_host = host;
      r.target_port = static_cast<std::uint16_t>(tp);
      r.src_dc = static_cast<DcId>(src);
      r.dst_dc = static_cast<DcId>(dst);
      routes.push_back(std::move(r));
    } else if (std::strcmp(argv[i], "--dcs") == 0) {
      topo.num_dcs = static_cast<DcId>(std::strtoul(value(), nullptr, 10));
    } else if (std::strcmp(argv[i], "--parts") == 0) {
      topo.partitions_per_dc =
          static_cast<PartitionId>(std::strtoul(value(), nullptr, 10));
    } else if (std::strcmp(argv[i], "--horizon-s") == 0) {
      horizon_s = std::strtod(value(), nullptr);
    } else if (std::strcmp(argv[i], "--duration-s") == 0) {
      duration_s = std::strtod(value(), nullptr);
    } else if (std::strcmp(argv[i], "--delay-us") == 0) {
      profile.base_delay_us = std::strtol(value(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--jitter-us") == 0) {
      profile.jitter_mean_us = std::strtol(value(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--loss") == 0) {
      profile.loss_p = std::strtod(value(), nullptr);
    } else if (std::strcmp(argv[i], "--bw") == 0) {
      profile.bandwidth_bytes_per_s = std::strtod(value(), nullptr);
    } else if (std::strcmp(argv[i], "--reorder-us") == 0) {
      profile.reorder_window_us = std::strtol(value(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--dup") == 0) {
      profile.dup_p = std::strtod(value(), nullptr);
    } else if (std::strcmp(argv[i], "--reset") == 0) {
      profile.reset_p = std::strtod(value(), nullptr);
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      verbose = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (routes.empty()) return usage(argv[0]);

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGPIPE, SIG_IGN);

  const auto schedule = std::make_shared<const net::ChaosSchedule>(
      seed, topo, static_cast<Duration>(horizon_s * 1e6),
      static_cast<Duration>(duration_s * 1e6), fault::FaultPlanLimits{});
  const Timestamp start = now_us();
  std::fprintf(stderr, "chaosproxy: seed=%llu plan_hash=%llx routes=%zu\n",
               static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(schedule->plan_hash()),
               routes.size());
  if (verbose) std::fprintf(stderr, "%s", schedule->plan_text().c_str());

  for (Route& r : routes) {
    r.listen_fd = socket(AF_INET, SOCK_STREAM, 0);
    if (r.listen_fd < 0) {
      std::perror("chaosproxy: socket");
      return 1;
    }
    const int one = 1;
    setsockopt(r.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(r.listen_port);
    if (bind(r.listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0 ||
        listen(r.listen_fd, 64) != 0 || !set_nonblock(r.listen_fd)) {
      std::fprintf(stderr, "chaosproxy: cannot listen on %u: %s\n",
                   r.listen_port, std::strerror(errno));
      return 1;
    }
  }

  std::vector<std::unique_ptr<Conn>> conns;
  std::uint64_t link_counter = 0;

  const auto make_pipe = [&](Pipe& p, DcId src, DcId dst) {
    p.chaos = std::make_unique<net::ChaosLink>(
        seed ^ (0x9e3779b97f4a7c15ULL * ++link_counter), profile);
    p.chaos->bind_schedule(schedule, src, dst, start);
  };

  const auto close_conn = [&](Conn& c) {
    if (c.client_fd >= 0) close(c.client_fd);
    if (c.target_fd >= 0) close(c.target_fd);
    c.client_fd = c.target_fd = -1;
    c.dead = true;
  };

  while (g_stop == 0) {
    const Timestamp now = now_us();
    for (auto& c : conns) {
      if (c->dead) continue;
      // Deliberate resets only (--reset, client routes): cut both sides.
      if (c->fwd.reset_pending || c->rev.reset_pending) {
        if (verbose) {
          std::fprintf(stderr, "chaosproxy: resetting %u->%u\n",
                       c->route->src_dc, c->route->dst_dc);
        }
        close_conn(*c);
        continue;
      }
      // A partitioned direction stalls: held frames stay held past their
      // release time until the window closes (the other direction keeps
      // flowing — asymmetric partitions).
      if (!c->fwd.chaos->blocked(now)) release_due(c->fwd, now);
      if (!c->rev.chaos->blocked(now)) release_due(c->rev, now);
    }
    std::erase_if(conns, [](const auto& c) { return c->dead; });

    std::vector<pollfd> pfds;
    std::vector<Route*> pfd_routes;
    std::vector<std::pair<Conn*, bool>> pfd_conns;  // (conn, is_client_fd)
    for (Route& r : routes) {
      // While the route's forward direction is partitioned, do not accept:
      // the dialer sees connection refusal, exactly like a blackholed path
      // that its SYN retransmits never cross.
      const net::ChaosLinkState st =
          schedule->state(r.src_dc, r.dst_dc, now - start);
      if (st.blocked) continue;
      pfds.push_back({r.listen_fd, POLLIN, 0});
      pfd_routes.push_back(&r);
      pfd_conns.emplace_back(nullptr, false);
    }
    for (auto& c : conns) {
      short cev = POLLIN;
      if (c->rev.out_head < c->rev.outbuf.size()) cev |= POLLOUT;
      pfds.push_back({c->client_fd, cev, 0});
      pfd_routes.push_back(nullptr);
      pfd_conns.emplace_back(c.get(), true);
      short tev = POLLIN;
      if (c->target_connecting || c->fwd.out_head < c->fwd.outbuf.size()) {
        tev |= POLLOUT;
      }
      pfds.push_back({c->target_fd, tev, 0});
      pfd_routes.push_back(nullptr);
      pfd_conns.emplace_back(c.get(), false);
    }

    // Sleep until the next held-frame release (or 10 ms). Blocked pipes are
    // skipped — their frames are due but unreleasable until the partition
    // window closes, and polling at 10 ms is plenty to notice that.
    int timeout_ms = 10;
    for (const auto& c : conns) {
      for (const Pipe* p : {&c->fwd, &c->rev}) {
        if (!p->heldq.empty() && !p->chaos->blocked(now)) {
          const Timestamp dt = p->heldq.front().release_at - now;
          timeout_ms = std::max(
              0, std::min(timeout_ms, static_cast<int>(dt / 1000)));
        }
      }
    }
    const int nready = poll(pfds.data(), pfds.size(), timeout_ms);
    if (nready < 0) {
      // EINTR: a signal landed mid-wait and the revents are unspecified —
      // re-enter the loop instead of consuming them. Anything else is a
      // programming error on our own fd set.
      if (errno != EINTR) {
        std::perror("chaosproxy: poll");
        break;
      }
      continue;
    }
    if (nready == 0) continue;  // timeout: release pass reruns up top

    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if (pfds[i].revents == 0) continue;
      if (Route* r = pfd_routes[i]; r != nullptr) {
        // New inbound connection: dial the target, non-blocking.
        int cfd = -1;
        do {
          cfd = accept(r->listen_fd, nullptr, nullptr);
        } while (cfd < 0 && errno == EINTR);  // interrupted, not failed
        if (cfd < 0) continue;
        set_nonblock(cfd);
        const int one = 1;
        setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        addrinfo hints{};
        hints.ai_family = AF_INET;
        hints.ai_socktype = SOCK_STREAM;
        addrinfo* res = nullptr;
        const std::string port_str = std::to_string(r->target_port);
        if (getaddrinfo(r->target_host.c_str(), port_str.c_str(), &hints,
                        &res) != 0 ||
            res == nullptr) {
          close(cfd);
          continue;
        }
        const int tfd = socket(AF_INET, SOCK_STREAM, 0);
        set_nonblock(tfd);
        setsockopt(tfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        connect(tfd, res->ai_addr, res->ai_addrlen);  // EINPROGRESS expected
        freeaddrinfo(res);
        auto conn = std::make_unique<Conn>();
        conn->client_fd = cfd;
        conn->target_fd = tfd;
        conn->route = r;
        make_pipe(conn->fwd, r->src_dc, r->dst_dc);
        make_pipe(conn->rev, r->dst_dc, r->src_dc);
        conns.push_back(std::move(conn));
        continue;
      }
      auto [c, is_client] = pfd_conns[i];
      if (c == nullptr || c->dead) continue;
      const int fd = is_client ? c->client_fd : c->target_fd;
      if (!is_client && c->target_connecting && (pfds[i].revents & POLLOUT)) {
        int err = 0;
        socklen_t len = sizeof(err);
        getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err != 0) {
          close_conn(*c);
          continue;
        }
        c->target_connecting = false;
      }
      if (pfds[i].revents & (POLLERR | POLLHUP)) {
        close_conn(*c);
        continue;
      }
      if (pfds[i].revents & POLLIN) {
        Pipe& p = is_client ? c->fwd : c->rev;
        std::uint8_t buf[64 * 1024];
        const ssize_t n = read(fd, buf, sizeof(buf));
        if (n <= 0) {
          if (n < 0 &&
              (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
            // spurious wakeup or interrupted read — the bytes are still
            // coming; tearing the proxied connection down here would punch
            // a hole in a live stream.
          } else {
            close_conn(*c);
            continue;
          }
        } else {
          p.inbuf.insert(p.inbuf.end(), buf, buf + n);
          if (!ingest(p, now_us())) {
            std::fprintf(stderr,
                         "chaosproxy: malformed frame prefix on %u->%u, "
                         "closing\n",
                         c->route->src_dc, c->route->dst_dc);
            close_conn(*c);
            continue;
          }
        }
      }
      if (pfds[i].revents & POLLOUT) {
        // POLLOUT on the client fd drains rev; on the target fd drains fwd.
        Pipe& p = is_client ? c->rev : c->fwd;
        if (p.out_head < p.outbuf.size()) {
          const ssize_t n = write(fd, p.outbuf.data() + p.out_head,
                                  p.outbuf.size() - p.out_head);
          if (n > 0) {
            p.out_head += static_cast<std::size_t>(n);
          } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                     errno != EINTR) {
            // EINTR is a retry, not a failure — the next poll round resends.
            close_conn(*c);
            continue;
          }
        }
      }
    }
  }
  for (auto& c : conns) close_conn(*c);
  for (Route& r : routes) {
    if (r.listen_fd >= 0) close(r.listen_fd);
  }
  std::fprintf(stderr, "chaosproxy: exiting\n");
  return 0;
}
