// End-to-end TCP deployment: a 3-DC x 2-partition cluster hosted by THREE
// multi-partition TcpNodeHosts (one per DC, two worker threads each — the
// poccd group topology) behind real localhost sockets (ephemeral ports),
// driven by TcpClientPool sessions — the same classes poccd / pocc_loadgen
// are built from, minus the process boundary (scripts/e2e_local_cluster.sh
// covers that in CI). Verifies read-your-writes, the cross-DC WC-DEP causal
// chain, and a concurrent mixed load whose full client history replays
// through the HistoryChecker with zero violations — all riding coalesced
// Batch frames between the hosts and in-process queues within them.
//
// Timing assertions are deliberately generous — this suite runs on loaded CI
// machines.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checker/client_history.hpp"
#include "checker/history_checker.hpp"
#include "common/rng.hpp"
#include "net/chaos.hpp"
#include "net/tcp_client.hpp"
#include "net/tcp_node_host.hpp"
#include "runtime/rt_node.hpp"
#include "store/key_space.hpp"

namespace pocc::net {
namespace {

/// Deployment-unique client ids across all tests in this binary.
std::atomic<ClientId> g_next_client{1};

ClusterLayout small_layout(rt::System system) {
  ClusterLayout layout;
  layout.topology.num_dcs = 3;
  layout.topology.partitions_per_dc = 2;
  layout.topology.partition_scheme = PartitionScheme::kHash;
  layout.system = system;
  layout.protocol.heartbeat_interval_us = 5'000;  // gentle on single-core CI
  layout.protocol.stabilization_interval_us = 20'000;
  layout.protocol.gc_interval_us = 200'000;
  layout.protocol.block_timeout_us = 2'000'000;
  // Addresses are filled in by Deployment once the ephemeral ports are known.
  return layout;
}

/// A whole cluster + per-DC client pools, in one process over real TCP:
/// one multi-partition host per DC, all partitions on 2 worker threads.
class Deployment {
 public:
  explicit Deployment(rt::System system,
                      const ClientResilience* resilience = nullptr)
      : layout_(small_layout(system)) {
    const auto& topo = layout_.topology;
    std::uint64_t seed = 1;
    for (DcId dc = 0; dc < topo.num_dcs; ++dc) {
      ProcessSpec spec;
      spec.dc = dc;
      for (PartitionId p = 0; p < topo.partitions_per_dc; ++p) {
        spec.parts.push_back(p);
      }
      spec.threads = 2;
      spec.host = "127.0.0.1";
      TcpNodeHost::Options opt;
      opt.listen_port = 0;  // ephemeral
      opt.seed = seed++;
      hosts_.push_back(std::make_unique<TcpNodeHost>(spec, layout_, opt));
      spec.port = hosts_.back()->port();
      layout_.processes.push_back(spec);
      for (PartitionId p = 0; p < topo.partitions_per_dc; ++p) {
        layout_.nodes.push_back(
            NodeAddress{NodeId{dc, p}, "127.0.0.1", spec.port});
      }
    }
    for (auto& host : hosts_) host->start(layout_.processes);
    for (DcId dc = 0; dc < topo.num_dcs; ++dc) {
      pools_.push_back(std::make_unique<TcpClientPool>(layout_, dc));
      if (resilience != nullptr) pools_.back()->set_resilience(*resilience);
      pools_.back()->start();
    }
    for (auto& pool : pools_) {
      EXPECT_TRUE(pool->wait_connected(10'000'000))
          << "client pool failed to reach all partitions";
    }
  }

  ~Deployment() {
    for (auto& pool : pools_) pool->stop();
    for (auto& host : hosts_) host->stop();
  }

  TcpSession& connect(DcId dc) {
    return pools_[dc]->connect(g_next_client.fetch_add(1));
  }

  std::vector<checker::SessionHistory> histories() const {
    std::vector<checker::SessionHistory> all;
    for (const auto& pool : pools_) {
      auto h = pool->histories();
      all.insert(all.end(), h.begin(), h.end());
    }
    return all;
  }

  const ClusterLayout& layout() const { return layout_; }

  std::uint64_t dropped_frames() const {
    std::uint64_t n = 0;
    for (const auto& host : hosts_) n += host->dropped_frames();
    return n;
  }

  std::uint64_t local_deliveries() const {
    std::uint64_t n = 0;
    for (const auto& host : hosts_) n += host->group().local_deliveries();
    return n;
  }

  std::uint64_t batched_messages() const {
    std::uint64_t n = 0;
    for (const auto& host : hosts_) n += host->batch_stats().messages;
    return n;
  }

  std::uint64_t batch_send_failures() const {
    std::uint64_t n = 0;
    for (const auto& host : hosts_) n += host->batch_stats().send_failures;
    return n;
  }

  std::uint64_t deduped_requests() const {
    std::uint64_t n = 0;
    for (const auto& host : hosts_) n += host->deduped_requests();
    return n;
  }

  ClientResilienceStats resilience_stats() const {
    ClientResilienceStats s;
    for (const auto& pool : pools_) s += pool->resilience_stats();
    return s;
  }

  /// Arm every inter-DC replication link with a schedule-bound ChaosLink:
  /// the profile's delay/jitter plus the seed's timed partition and degrade
  /// windows, exactly as chaos_campaign does.
  void arm_server_chaos(std::uint64_t seed, const ChaosProfile& profile) {
    schedule_ = std::make_shared<ChaosSchedule>(
        seed, layout_.topology, /*horizon_us=*/2'000'000,
        /*duration_us=*/60'000'000);
    const Timestamp start = rt::steady_now_us();
    std::uint64_t n = 0;
    for (DcId src = 0; src < layout_.topology.num_dcs; ++src) {
      for (DcId dst = 0; dst < layout_.topology.num_dcs; ++dst) {
        if (src == dst) continue;
        auto link = std::make_shared<ChaosLink>(
            seed ^ (0x9e3779b97f4a7c15ULL * ++n), profile);
        link->bind_schedule(schedule_, src, dst, start);
        hosts_[src]->arm_chaos(dst, link);
      }
    }
  }

  /// Arm every dialed client connection (both replicas when resilience
  /// dialed siblings) with an unscheduled ChaosLink — client links may
  /// carry dup/reset chaos because the op_id idempotency cache absorbs it.
  void arm_client_chaos(std::uint64_t seed, const ChaosProfile& profile) {
    std::uint64_t n = 0;
    for (auto& pool : pools_) {
      for (PartitionId p = 0; p < layout_.topology.partitions_per_dc; ++p) {
        for (unsigned replica = 0; replica < 2; ++replica) {
          const ConnId conn = pool->conn_of(p, replica);
          if (conn == kInvalidConn) continue;
          pool->transport().set_chaos(
              conn, std::make_shared<ChaosLink>(
                        seed ^ (0x9e3779b97f4a7c15ULL * ++n), profile));
        }
      }
    }
  }

 private:
  ClusterLayout layout_;
  std::vector<std::unique_ptr<TcpNodeHost>> hosts_;
  std::vector<std::unique_ptr<TcpClientPool>> pools_;
  std::shared_ptr<ChaosSchedule> schedule_;
};

/// Poll `fn` until it returns true or the deadline passes.
bool eventually(Duration timeout_us, const std::function<bool()>& fn) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(timeout_us);
  while (std::chrono::steady_clock::now() < deadline) {
    if (fn()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return fn();
}

void expect_clean_replay(const Deployment& cluster) {
  checker::HistoryChecker checker(cluster.layout().topology.num_dcs);
  const auto result = checker::replay_history(cluster.histories(), checker);
  EXPECT_TRUE(result.complete) << result.error;
  EXPECT_TRUE(checker.violations().empty())
      << checker.violations().size() << " violations, first: "
      << checker.violations().front();
  EXPECT_GT(checker.checks_performed(), 0u);
}

TEST(E2eTcp, ReadYourWritesSingleDc) {
  Deployment cluster(rt::System::kPocc);
  TcpSession& s = cluster.connect(0);
  const auto put = s.put("e2e:ryw", "v1");
  ASSERT_TRUE(put.ok);
  EXPECT_GT(put.ut, 0);
  const auto get = s.get("e2e:ryw");
  ASSERT_TRUE(get.ok);
  EXPECT_TRUE(get.found);
  EXPECT_EQ(get.value, "v1");

  // Overwrites stay monotonic under the same session.
  ASSERT_TRUE(s.put("e2e:ryw", "v2").ok);
  const auto get2 = s.get("e2e:ryw");
  ASSERT_TRUE(get2.ok);
  EXPECT_EQ(get2.value, "v2");
  expect_clean_replay(cluster);
}

TEST(E2eTcp, WcDepChainAcrossDcs) {
  // The paper's write-chain scenario (§II-A): Alice posts a photo (x) in
  // DC0; Bob in DC1 sees it and comments (y); Carol in DC2 who sees the
  // comment MUST see the photo — y's dependency vector forces the GET on x
  // to block until x's replication arrives.
  Deployment cluster(rt::System::kPocc);
  TcpSession& alice = cluster.connect(0);
  TcpSession& bob = cluster.connect(1);
  TcpSession& carol = cluster.connect(2);

  ASSERT_TRUE(alice.put("e2e:photo", "selfie").ok);

  // Bob polls until the photo replicated into DC1, then comments.
  ASSERT_TRUE(eventually(10'000'000, [&] {
    const auto got = bob.get("e2e:photo");
    return got.ok && got.found;
  })) << "photo never replicated to DC1";
  ASSERT_TRUE(bob.put("e2e:comment", "nice!").ok);

  // Carol polls for the comment; the instant she sees it, causality demands
  // the photo be visible too (the GET may block, but must not miss).
  ASSERT_TRUE(eventually(10'000'000, [&] {
    const auto got = carol.get("e2e:comment");
    return got.ok && got.found;
  })) << "comment never replicated to DC2";
  const auto photo = carol.get("e2e:photo");
  ASSERT_TRUE(photo.ok);
  EXPECT_TRUE(photo.found) << "WC-DEP violated: comment seen, photo missing";
  EXPECT_EQ(photo.value, "selfie");
  expect_clean_replay(cluster);
}

TEST(E2eTcp, RoTxReturnsCompleteSnapshot) {
  Deployment cluster(rt::System::kPocc);
  TcpSession& s = cluster.connect(0);
  ASSERT_TRUE(s.put("e2e:tx:a", "1").ok);
  ASSERT_TRUE(s.put("e2e:tx:b", "2").ok);
  const auto tx = s.ro_tx({"e2e:tx:a", "e2e:tx:b"});
  ASSERT_TRUE(tx.ok);
  ASSERT_EQ(tx.items.size(), 2u);
  for (const auto& item : tx.items) {
    EXPECT_TRUE(item.found) << store::key_name(item.key);
  }
  expect_clean_replay(cluster);
}

/// Closed-loop mixed workload on a deliberately tiny keyspace (maximum
/// cross-session conflict), all three DCs concurrently.
void run_load(Deployment& cluster, int sessions_per_dc, int ops_per_session) {
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (DcId dc = 0; dc < cluster.layout().topology.num_dcs; ++dc) {
    for (int i = 0; i < sessions_per_dc; ++i) {
      TcpSession& s = cluster.connect(dc);
      threads.emplace_back([&, dc, i, ops_per_session] {
        Rng rng((static_cast<std::uint64_t>(dc) << 8) | i);
        for (int op = 0; op < ops_per_session; ++op) {
          const std::string key =
              "e2e:load:" + std::to_string(rng.uniform(12));
          const std::uint64_t kind = rng.uniform(10);
          if (kind < 5) {
            if (!s.get(key).ok) ++failures;
          } else if (kind < 9) {
            const std::string value =
                "v" + std::to_string(dc) + "." + std::to_string(op);
            if (!s.put(key, value).ok) ++failures;
          } else {
            const std::string other =
                "e2e:load:" + std::to_string(rng.uniform(12));
            if (!s.ro_tx({key, other}).ok) ++failures;
          }
        }
      });
    }
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0) << "some operations timed out";
}

TEST(E2eTcp, ConcurrentLoadReplaysCleanlyPocc) {
  Deployment cluster(rt::System::kPocc);
  run_load(cluster, /*sessions_per_dc=*/2, /*ops_per_session=*/120);
  EXPECT_EQ(cluster.dropped_frames(), 0u);
  // The multi-partition topology must actually exercise both transports:
  // intra-DC traffic (GC reports, sibling slices) as in-process pushes,
  // inter-DC replication as coalesced Batch frames.
  EXPECT_GT(cluster.local_deliveries(), 0u);
  EXPECT_GT(cluster.batched_messages(), 0u);
  EXPECT_EQ(cluster.batch_send_failures(), 0u)
      << "backpressure dropped replication batches";
  expect_clean_replay(cluster);
}

TEST(E2eTcp, ConcurrentLoadReplaysCleanlyCure) {
  Deployment cluster(rt::System::kCure);
  run_load(cluster, /*sessions_per_dc=*/2, /*ops_per_session=*/80);
  EXPECT_EQ(cluster.dropped_frames(), 0u);
  expect_clean_replay(cluster);
}

TEST(E2eTcp, ChaosOnReplicationLinksReplaysClean) {
  // Delay, jitter, loss stalls and the seed's timed partition windows on
  // every inter-DC link: replication gets late and bursty but stays a
  // lossless FIFO, so the full history must still replay with zero causal
  // violations — the core claim of the chaos model (net/chaos.hpp).
  Deployment cluster(rt::System::kPocc);
  ChaosProfile profile;
  profile.base_delay_us = 1'000;
  profile.jitter_mean_us = 500;
  profile.loss_p = 0.005;
  profile.rto_penalty_us = 20'000;
  profile.reorder_window_us = 1'000;
  cluster.arm_server_chaos(/*seed=*/7, profile);
  run_load(cluster, /*sessions_per_dc=*/2, /*ops_per_session=*/100);
  EXPECT_EQ(cluster.dropped_frames(), 0u);
  expect_clean_replay(cluster);
}

/// One Batch frame of two heartbeats, routed from `from` to `to`.
std::vector<std::uint8_t> heartbeat_batch(NodeId from, NodeId to) {
  proto::BatchFrame batch;
  for (Timestamp ts = 1; ts <= 2; ++ts) {
    batch.items.push_back(proto::RoutedMessage{
        from, to, proto::Message{proto::Heartbeat{from.dc, ts}}});
  }
  std::vector<std::uint8_t> buf;
  proto::encode(batch, buf);
  return buf;
}

TEST(E2eTcp, MislabeledBatchOnGreetedConnectionIsDropped) {
  // A greeted peer speaks only for its own DC, and only to the host's: a
  // batch whose header names another sender DC, or a receiver DC that is
  // not the host's, is dropped whole and counted — never enqueued.
  Deployment cluster(rt::System::kPocc);
  const ProcessSpec& dc0 = cluster.layout().processes[0];
  TcpTransport peer(TcpTransport::Callbacks{}, TcpTransport::Options{});
  const ConnId conn = peer.connect_peer("127.0.0.1", dc0.port);
  std::vector<std::uint8_t> hello;
  proto::encode(proto::NodeHello{NodeId{1, 0}}, hello);
  peer.set_greeting(conn, std::move(hello));
  peer.start();

  const std::uint64_t before = cluster.dropped_frames();
  // Greeted as DC1, claims to send for DC2.
  ASSERT_TRUE(peer.send(conn, heartbeat_batch(NodeId{2, 0}, NodeId{0, 0})));
  EXPECT_TRUE(eventually(5'000'000, [&] {
    return cluster.dropped_frames() == before + 2;
  })) << "a batch whose sender DC is not the greeting peer's was admitted";
  // Right sender, but addressed to DC1 at DC0's host.
  ASSERT_TRUE(peer.send(conn, heartbeat_batch(NodeId{1, 0}, NodeId{1, 1})));
  EXPECT_TRUE(eventually(5'000'000, [&] {
    return cluster.dropped_frames() == before + 4;
  })) << "a batch whose receiver DC is not the host's was admitted";
  // The connection stays usable for correctly labeled traffic.
  ASSERT_TRUE(peer.send(conn, heartbeat_batch(NodeId{1, 0}, NodeId{0, 1})));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(cluster.dropped_frames(), before + 4);
  peer.stop();
}

TEST(E2eTcp, ResilientSessionsAbsorbDuplicatedClientFrames) {
  // Dup-heavy chaos on the CLIENT links (the one place duplication is
  // legal): the per-client op_id idempotency cache must absorb every
  // duplicate — all ops succeed, the servers count dedups, and the replayed
  // history stays clean (no double-applied PUT).
  ClientResilience resilience;
  resilience.enabled = true;
  Deployment cluster(rt::System::kPocc, &resilience);
  ChaosProfile profile;
  profile.base_delay_us = 200;
  profile.jitter_mean_us = 200;
  profile.dup_p = 0.05;
  cluster.arm_client_chaos(/*seed=*/11, profile);
  run_load(cluster, /*sessions_per_dc=*/2, /*ops_per_session=*/100);
  EXPECT_GT(cluster.deduped_requests(), 0u)
      << "dup_p=0.05 over 1200 ops should have produced duplicates";
  expect_clean_replay(cluster);
}

TEST(E2eTcp, PipelinedSessionsReplayCleanly) {
  // The pipelined client path: one driver thread per DC interleaves many
  // sessions through the non-blocking start_*/pump/finish_* API, so each
  // pool connection carries several in-flight ops at once (what
  // pocc_loadgen --pipeline does). Every session stays serial, so the full
  // history must still replay with zero causal violations.
  Deployment cluster(rt::System::kPocc);
  constexpr int kSessionsPerDc = 8;
  constexpr int kOpsPerSession = 60;
  std::vector<std::thread> drivers;
  std::atomic<int> failures{0};
  for (DcId dc = 0; dc < cluster.layout().topology.num_dcs; ++dc) {
    std::vector<TcpSession*> sessions;
    for (int i = 0; i < kSessionsPerDc; ++i) {
      sessions.push_back(&cluster.connect(dc));
    }
    drivers.emplace_back([&, dc, sessions] {
      struct Slot {
        TcpSession* s = nullptr;
        Rng rng{0};
        int started = 0;
        int completed = 0;
        std::uint64_t kind = 0;
      };
      std::vector<Slot> slots;
      for (int i = 0; i < kSessionsPerDc; ++i) {
        Slot sl;
        sl.s = sessions[i];
        sl.rng = Rng((static_cast<std::uint64_t>(dc) << 8) | i);
        slots.push_back(sl);
      }
      for (;;) {
        bool progress = false;
        bool all_done = true;
        for (Slot& sl : slots) {
          if (!sl.s->op_pending() && sl.started < kOpsPerSession) {
            const std::string key =
                "e2e:pipe:" + std::to_string(sl.rng.uniform(12));
            sl.kind = sl.rng.uniform(10);
            bool ok = false;
            if (sl.kind < 5) {
              ok = sl.s->start_get(key);
            } else if (sl.kind < 9) {
              ok = sl.s->start_put(
                  key, "v" + std::to_string(dc) + "." +
                           std::to_string(sl.started));
            } else {
              const std::string other =
                  "e2e:pipe:" + std::to_string(sl.rng.uniform(12));
              ok = sl.s->start_ro_tx({key, other});
            }
            EXPECT_TRUE(ok);
            ++sl.started;
            progress = true;
          }
          if (sl.s->op_pending() && sl.s->pump()) {
            bool ok = false;
            if (sl.kind < 5) {
              ok = sl.s->finish_get().ok;
            } else if (sl.kind < 9) {
              ok = sl.s->finish_put().ok;
            } else {
              ok = sl.s->finish_tx().ok;
            }
            if (!ok) ++failures;
            ++sl.completed;
            progress = true;
          }
          all_done = all_done && sl.completed >= kOpsPerSession;
        }
        if (all_done) break;
        if (!progress) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
      }
    });
  }
  for (auto& t : drivers) t.join();
  EXPECT_EQ(failures.load(), 0) << "pipelined operations timed out";
  EXPECT_EQ(cluster.dropped_frames(), 0u);
  expect_clean_replay(cluster);
}

TEST(E2eTcp, CrossDcVisibilityEventuallyConverges) {
  Deployment cluster(rt::System::kPocc);
  TcpSession& writer = cluster.connect(0);
  ASSERT_TRUE(writer.put("e2e:geo", "hello").ok);
  for (DcId dc = 1; dc < 3; ++dc) {
    TcpSession& reader = cluster.connect(dc);
    EXPECT_TRUE(eventually(10'000'000, [&] {
      const auto got = reader.get("e2e:geo");
      return got.ok && got.found && got.value == "hello";
    })) << "value never visible in DC " << dc;
  }
  expect_clean_replay(cluster);
}

}  // namespace
}  // namespace pocc::net
