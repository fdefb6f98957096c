// Recovery-time bench: WAL replay cost vs log length, one JSON line.
//
// Builds fixed-seed on-disk WALs of increasing record counts (the value-size
// and key-locality mix of the paper's workload), then measures the cold
// restart path — open the partition directory, heal the tail, replay every
// record into a fresh PartitionStore — exactly what a restarted poccd does
// before re-admitting clients. The largest log is measured twice: pure log
// replay, and snapshot + suffix replay after a mid-log checkpoint, so the
// artifact tracks both the worst case and the payoff of checkpointing.
//
//   ./recovery_bench                       # JSON line on stdout
//   ./recovery_bench --out BENCH_recovery.json
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <unistd.h>

#include "common/rng.hpp"
#include "store/key_space.hpp"
#include "store/partition_store.hpp"
#include "store/version.hpp"
#include "vclock/version_vector.hpp"
#include "wal/partition_wal.hpp"

namespace {

using namespace pocc;
namespace fs = std::filesystem;

constexpr std::uint64_t kSeed = 42;
constexpr std::uint32_t kDcs = 3;

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() /
                       ("pocc_recovery_bench_" + std::to_string(::getpid())) /
                       name;
  fs::remove_all(dir);
  return dir.string();
}

/// Appends `records` seed-deterministic versions (paper-workload value sizes,
/// Zipf-ish hot key reuse) with a group commit every 64, optionally
/// checkpointing once at the midpoint.
void build_log(wal::PartitionWal& wal, std::uint64_t records,
               bool checkpoint_midway) {
  Rng rng(kSeed);
  store::PartitionStore store;
  VersionVector vv(kDcs);
  for (std::uint64_t i = 0; i < records; ++i) {
    store::Version v;
    v.key = store::intern_key("1:key" + std::to_string(rng.uniform(1024)));
    v.value = std::string(16 + rng.uniform(64), 'x');
    v.sr = static_cast<DcId>(rng.uniform(kDcs));
    v.ut = static_cast<Timestamp>(1'000 + i);
    v.dv = vv;
    wal.log_version(v);
    store.insert(v);
    vv.raise(v.sr, v.ut);
    if (i % 64 == 63) wal.sync();
    if (checkpoint_midway && i == records / 2) {
      wal.sync();
      const auto seq = wal.begin_checkpoint(store, vv);
      if (seq.has_value()) wal.commit_checkpoint(*seq);
    }
  }
  wal.sync();
}

struct ReplayResult {
  double ms = 0.0;
  std::uint64_t versions = 0;
  std::uint64_t bytes = 0;  // durable bytes the restart had to read
};

/// The cold restart: open the directory and rebuild a store from it.
ReplayResult measure_replay(const std::string& dir) {
  ReplayResult r;
  for (const auto& e : fs::directory_iterator(dir)) {
    r.bytes += static_cast<std::uint64_t>(fs::file_size(e.path()));
  }
  const auto start = std::chrono::steady_clock::now();
  wal::PartitionWal wal(dir);
  store::PartitionStore store;
  VersionVector vv(kDcs);
  const wal::PartitionWal::ReplayStats stats = wal.replay(
      [&](const store::Version& v) {
        store.insert(v);
        vv.raise(v.sr, v.ut);
      },
      [&](const VersionVector& snap_vv) { vv.merge_max(snap_vv); });
  const auto end = std::chrono::steady_clock::now();
  r.ms = std::chrono::duration<double, std::milli>(end - start).count();
  r.versions = stats.snapshot_versions + stats.log_versions;
  return r;
}

ReplayResult run_point(const std::string& name, std::uint64_t records,
                       bool checkpoint_midway) {
  const std::string dir = fresh_dir(name);
  {
    wal::PartitionWal::Options opt;
    opt.checkpoint_bytes = 0;  // rotation only where the bench asks for it
    wal::PartitionWal wal(dir, opt);
    build_log(wal, records, checkpoint_midway);
  }
  ReplayResult r = measure_replay(dir);
  fs::remove_all(dir);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--out FILE]\n", argv[0]);
      return 2;
    }
  }

  const ReplayResult r1k = run_point("log1k", 1'000, false);
  const ReplayResult r10k = run_point("log10k", 10'000, false);
  const ReplayResult r50k = run_point("log50k", 50'000, false);
  const ReplayResult r50k_snap = run_point("log50k_snap", 50'000, true);

  const double mb = static_cast<double>(r50k.bytes) / (1024.0 * 1024.0);
  const double mb_per_sec = r50k.ms > 0.0 ? mb / (r50k.ms / 1000.0) : 0.0;
  char line[512];
  std::snprintf(
      line, sizeof(line),
      "{\"bench\":\"recovery\",\"seed\":%llu,"
      "\"replay_1k_ms\":%.2f,\"replay_10k_ms\":%.2f,\"replay_50k_ms\":%.2f,"
      "\"replay_50k_snap_ms\":%.2f,\"replay_50k_versions\":%llu,"
      "\"replay_mb\":%.2f,\"replay_mb_per_sec\":%.1f}",
      static_cast<unsigned long long>(kSeed), r1k.ms, r10k.ms, r50k.ms,
      r50k_snap.ms, static_cast<unsigned long long>(r50k.versions), mb,
      mb_per_sec);
  std::printf("%s\n", line);
  if (out_path != nullptr) {
    std::ofstream out(out_path);
    out << line << "\n";
  }
  return 0;
}
