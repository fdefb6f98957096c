// Checkpoints under real threads (ctest labels `concurrency` and
// `recovery`; runs under ThreadSanitizer in CI): a running rt::NodeGroup
// with a WalManager and a small checkpoint threshold, so every partition
// cuts several snapshots on its worker thread while the manager's flusher
// commits and prunes the previous ones — the owner/flusher handshake on
// PartitionWal's pending flag is exercised for real. A restart on the same
// data directory must replay to the exact state the group stopped with.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "pocc/pocc_server.hpp"
#include "runtime/node_group.hpp"
#include "stats/registry.hpp"
#include "store/key_space.hpp"
#include "wal/wal_manager.hpp"

namespace pocc::rt {
namespace {

namespace fs = std::filesystem;

constexpr std::uint32_t kParts = 2;

/// Counts client replies; nothing may leave a 1-DC group any other way.
class CountingRouter final : public Router {
 public:
  void route(NodeId /*from*/, NodeId /*to*/, proto::Message /*m*/) override {
    ADD_FAILURE() << "a 1-DC group must never route outside the process";
  }
  void route_to_client(NodeId /*from*/, ClientId /*client*/,
                       proto::Message /*m*/) override {
    {
      std::lock_guard lk(mu_);
      ++replies_;
    }
    cv_.notify_all();
  }

  bool wait_replies(std::size_t n) {
    std::unique_lock lk(mu_);
    return cv_.wait_for(lk, std::chrono::seconds(30),
                        [&] { return replies_ >= n; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t replies_ = 0;
};

ProtocolConfig protocol() {
  ProtocolConfig p;
  // No GC: it prunes versions without logging, so the full multiversion
  // store would legitimately differ from its replay.
  p.gc_interval_us = 3'600'000'000;
  return p;
}

std::unique_ptr<NodeGroup> make_group(Router& router, wal::WalManager& wal,
                                      stats::Registry* registry) {
  NodeGroup::Options opt;
  opt.threads = kParts;
  opt.seed = 11;
  opt.wal = &wal;
  opt.registry = registry;
  auto group = std::make_unique<NodeGroup>(
      /*dc=*/0, std::vector<PartitionId>{0, 1}, router, opt);
  group->install_engines([](NodeId id, server::Context& ctx) {
    return std::make_unique<PoccServer>(
        id, TopologyConfig{1, kParts, PartitionScheme::kHash}, protocol(),
        ServiceConfig{}, ctx);
  });
  return group;
}

/// VV plus the full multiversion store of one engine.
std::uint64_t digest(const server::ReplicaBase& e) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  auto mix = [&h](std::uint64_t x) { h = splitmix64(h ^ x); };
  const VersionVector& vv = e.version_vector();
  for (std::uint32_t i = 0; i < vv.size(); ++i) {
    mix(static_cast<std::uint64_t>(vv[i]));
  }
  for (const auto& [key, chain] : e.partition_store().chains()) {
    for (const char c : store::key_name(key)) mix(static_cast<std::uint8_t>(c));
    for (const store::VersionRecord& v : chain) {
      mix(static_cast<std::uint64_t>(v.ut()));
      mix(v.sr());
      for (const char c : v.value()) mix(static_cast<std::uint8_t>(c));
    }
  }
  return h;
}

TEST(WalCheckpointConcurrency, RunningGroupCheckpointsAndReplaysExactly) {
  const fs::path dir = fs::temp_directory_path() /
                       ("pocc_wal_ckpt_conc_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  wal::PartitionWal::Options wal_opt;
  wal_opt.checkpoint_bytes = 16 * 1024;

  std::vector<std::uint64_t> want(kParts);
  {
    wal::WalManager wal(dir.string(), wal_opt);
    stats::Registry registry;
    CountingRouter router;
    auto group = make_group(router, wal, &registry);
    group->start();
    // Waves of concurrent PUTs over 64 keys per partition (so chains grow
    // several versions deep), ~300 B per logged record: each partition
    // crosses the threshold many times while the flusher is still
    // committing the previous cut.
    constexpr int kWaves = 25;
    constexpr int kPerWave = 40;
    std::uint64_t op = 0;
    for (int w = 0; w < kWaves; ++w) {
      for (int i = 0; i < kPerWave; ++i) {
        const int n = w * kPerWave + i;
        proto::PutReq req;
        req.client = 1 + static_cast<ClientId>(i);
        req.key = store::intern_key("ckpt:" + std::to_string(n % 128));
        req.value = std::string(256, static_cast<char>('a' + n % 26));
        req.dv = VersionVector(1);
        req.op_id = ++op;
        const NodeId to{0, store::KeySpace::global().partition(
                               req.key, kParts, PartitionScheme::kHash)};
        group->enqueue(to, to, proto::Message{std::move(req)});
      }
      ASSERT_TRUE(router.wait_replies(static_cast<std::size_t>(op)));
    }
    group->stop();
    wal.stop();

    EXPECT_GE(wal.checkpoints_committed(), 3u * kParts);
    EXPECT_EQ(wal.checkpoints_failed(), 0u);
    std::uint64_t cuts = 0;
    for (const auto& s : registry.snapshot().samples) {
      if (s.name == "pocc_wal_checkpoint_cut_us") cuts += s.hist->count();
    }
    EXPECT_EQ(cuts, wal.checkpoints_committed());
    for (PartitionId p = 0; p < kParts; ++p) {
      EXPECT_GE(wal.wal_for(p).checkpoints(), 3u) << "partition " << p;
      want[p] = digest(group->engine(p));
    }
  }

  // Restart on the same directory: newest snapshot + segment suffix.
  wal::WalManager wal(dir.string(), wal_opt);
  CountingRouter router;
  auto group = make_group(router, wal, nullptr);
  for (PartitionId p = 0; p < kParts; ++p) {
    server::ReplicaBase& eng = group->engine(p);
    const auto stats = wal.wal_for(p).replay(
        [&eng](const store::Version& v) { eng.restore_version(v); },
        [&eng](const VersionVector& vv) { eng.restore_vv(vv); });
    EXPECT_TRUE(stats.snapshot_loaded) << "partition " << p;
    EXPECT_GT(stats.snapshot_versions, 0u) << "partition " << p;
    EXPECT_EQ(digest(eng), want[p]) << "partition " << p;
  }
  wal.stop();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace pocc::rt
