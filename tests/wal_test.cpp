// Per-partition WAL unit tests: record framing round-trips, log + group
// commit + replay across reopens (the process-restart path), checkpoint
// rotation, corrupt-snapshot fallback to the older recovery line, the prune
// policy, and the streamed snapshot path: byte equality with an
// independent encoder of the documented layout, whole-file validation
// before apply, and a write failure mid-cut. Adversarial torn-tail /
// bit-flip sweeps live in wal_fuzz_test.cpp; the full crash battery in
// recovery_test.cpp.
#include "wal/partition_wal.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "store/key_space.hpp"
#include "store/partition_store.hpp"
#include "store/version.hpp"
#include "wal/wal_format.hpp"

namespace pocc::wal {
namespace {

namespace fs = std::filesystem;

/// A fresh, empty scratch directory unique to this process + test.
std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() /
                       ("pocc_wal_test_" + std::to_string(::getpid())) / name;
  fs::remove_all(dir);
  return dir.string();
}

store::Version make_version(const std::string& key, Timestamp ut, DcId sr,
                            const std::string& value) {
  store::Version v;
  v.key = store::intern_key(key);
  v.value = value;
  v.sr = sr;
  v.ut = ut;
  v.dv = VersionVector(3);
  if (ut > 0) v.dv.raise(sr, ut - 1);
  return v;
}

/// Replays `wal` and returns the recovered versions in replay order.
std::vector<store::Version> replay_versions(
    PartitionWal& wal, PartitionWal::ReplayStats* stats = nullptr,
    VersionVector* vv_out = nullptr) {
  std::vector<store::Version> got;
  const PartitionWal::ReplayStats s = wal.replay(
      [&](const store::Version& v) { got.push_back(v); },
      [&](const VersionVector& vv) {
        if (vv_out != nullptr) vv_out->merge_max(vv);
      });
  if (stats != nullptr) *stats = s;
  return got;
}

TEST(WalFormat, RecordRoundTrip) {
  std::vector<std::uint8_t> buf;
  const store::Version v = make_version("1:a", 42, 1, "hello");
  append_version_record(buf, v);
  VersionVector vv(3);
  vv.raise(0, 7);
  vv.raise(2, 99);
  append_vv_record(buf, vv);

  std::vector<Record> records;
  const ScanResult scan = scan_records(
      buf.data(), buf.size(), [&](const Record& r) { records.push_back(r); });
  EXPECT_FALSE(scan.torn);
  EXPECT_EQ(scan.records, 2u);
  EXPECT_EQ(scan.valid_bytes, buf.size());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].kind, RecordKind::kVersion);
  EXPECT_EQ(records[0].version.key, v.key);
  EXPECT_EQ(records[0].version.value, "hello");
  EXPECT_EQ(records[0].version.ut, 42);
  EXPECT_EQ(records[0].version.sr, 1u);
  EXPECT_EQ(records[0].version.dv, v.dv);
  EXPECT_EQ(records[1].kind, RecordKind::kVv);
  EXPECT_EQ(records[1].vv, vv);
}

/// Streams a snapshot of `store` + `vv` into memory, CRC patched in.
std::vector<std::uint8_t> snapshot_image(const store::PartitionStore& store,
                                         const VersionVector& vv) {
  std::vector<std::uint8_t> image;
  const auto crc = stream_snapshot(
      store, vv, [&](const std::uint8_t* data, std::size_t len) {
        image.insert(image.end(), data, data + len);
        return true;
      });
  EXPECT_TRUE(crc.has_value());
  for (std::size_t i = 0; i < 4; ++i) {
    image[kSnapshotCrcOffset + i] =
        static_cast<std::uint8_t>(crc.value_or(0) >> (8 * i));
  }
  return image;
}

/// A ChunkSource over an in-memory image, handing out at most `step` bytes
/// per call so reads straddle field boundaries.
ChunkSource memory_source(const std::vector<std::uint8_t>& image,
                          std::size_t step) {
  return [&image, step, off = std::size_t{0}](std::uint8_t* buf,
                                              std::size_t len) mutable {
    const std::size_t n = std::min({len, step, image.size() - off});
    std::copy_n(image.begin() + static_cast<std::ptrdiff_t>(off), n, buf);
    off += n;
    return n;
  };
}

TEST(WalFormat, SnapshotRoundTrip) {
  store::PartitionStore store;
  VersionVector vv(3);
  for (int i = 0; i < 20; ++i) {
    const store::Version v = make_version("1:snap" + std::to_string(i % 5),
                                          100 + i, static_cast<DcId>(i % 3),
                                          "v" + std::to_string(i));
    store.insert(v);
    vv.raise(v.sr, v.ut);
  }
  const std::vector<std::uint8_t> image = snapshot_image(store, vv);
  EXPECT_TRUE(validate_snapshot(memory_source(image, 7), image.size()));
  std::vector<store::Version> got;
  VersionVector got_vv;
  const auto count = apply_snapshot(
      memory_source(image, 7), image.size(),
      [&](const store::Version& v) { got.push_back(v); },
      [&](const VersionVector& snap_vv) { got_vv = snap_vv; });
  ASSERT_TRUE(count.has_value());
  EXPECT_EQ(*count, 20u);
  EXPECT_EQ(got.size(), 20u);
  EXPECT_EQ(got_vv, vv);
  // Any corruption (here: one flipped body byte) must fail validation, not
  // hand back garbage — the caller falls back to the older recovery line.
  std::vector<std::uint8_t> bad = image;
  bad[bad.size() / 2] ^= 0x40;
  EXPECT_FALSE(validate_snapshot(memory_source(bad, 7), bad.size()));
  // So must a length that disagrees with the image.
  EXPECT_FALSE(validate_snapshot(memory_source(image, 7), image.size() + 1));
}

TEST(WalTest, LogSyncReplayAcrossReopen) {
  const std::string dir = fresh_dir("reopen");
  std::vector<store::Version> logged;
  VersionVector final_vv(3);
  {
    PartitionWal wal(dir);
    for (int i = 0; i < 50; ++i) {
      const store::Version v =
          make_version("1:k" + std::to_string(i), 1'000 + i,
                       static_cast<DcId>(i % 3), "val" + std::to_string(i));
      wal.log_version(v);
      logged.push_back(v);
      final_vv.raise(v.sr, v.ut);
      if (i % 10 == 9) {
        EXPECT_GT(wal.unsynced_bytes(), 0u);
        wal.sync();  // group commit every 10 appends
        EXPECT_EQ(wal.unsynced_bytes(), 0u);
      }
    }
    final_vv.raise(2, 9'999);  // a heartbeat-driven raise with no version
    wal.log_vv(final_vv);
    wal.sync();
  }
  PartitionWal reopened(dir);
  PartitionWal::ReplayStats stats;
  VersionVector vv(3);
  const std::vector<store::Version> got =
      replay_versions(reopened, &stats, &vv);
  ASSERT_EQ(got.size(), logged.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, logged[i].key);
    EXPECT_EQ(got[i].value, logged[i].value);
    EXPECT_EQ(got[i].ut, logged[i].ut);
    EXPECT_EQ(got[i].sr, logged[i].sr);
    EXPECT_EQ(got[i].dv, logged[i].dv);
  }
  EXPECT_EQ(vv, final_vv);
  EXPECT_FALSE(stats.snapshot_loaded);
  EXPECT_EQ(stats.log_versions, 50u);
  EXPECT_EQ(stats.vv_records, 1u);
  EXPECT_EQ(stats.torn_bytes, 0u);
}

TEST(WalTest, DiscardedUnsyncedTailIsLost) {
  const std::string dir = fresh_dir("discard");
  {
    PartitionWal wal(dir);
    wal.log_version(make_version("1:durable", 10, 0, "kept"));
    wal.sync();
    wal.log_version(make_version("1:volatile", 11, 0, "lost"));
    // kill -9: the userland buffer dies without reaching the segment.
    wal.discard_unsynced();
    EXPECT_EQ(wal.unsynced_bytes(), 0u);
  }
  PartitionWal reopened(dir);
  const std::vector<store::Version> got = replay_versions(reopened);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].value, "kept");
}

TEST(WalTest, CheckpointRotatesSnapshotsAndReplaysTheSuffix) {
  const std::string dir = fresh_dir("checkpoint");
  PartitionWal::Options opt;
  opt.checkpoint_bytes = 1;  // every synced byte crosses the threshold
  store::PartitionStore store;
  VersionVector vv(3);
  {
    PartitionWal wal(dir, opt);
    for (int i = 0; i < 8; ++i) {
      const store::Version v = make_version("1:c" + std::to_string(i), 50 + i,
                                            0, "v" + std::to_string(i));
      wal.log_version(v);
      store.insert(v);
      vv.raise(v.sr, v.ut);
    }
    wal.sync();
    ASSERT_TRUE(wal.wants_checkpoint());
    const auto seq = wal.begin_checkpoint(store, vv);
    ASSERT_TRUE(seq.has_value());
    EXPECT_EQ(wal.active_segment_seq(), *seq);
    // Pending until the commit lands, even once the new segment refills.
    wal.log_version(make_version("1:between", 60, 0, "b"));
    wal.sync();
    EXPECT_FALSE(wal.wants_checkpoint());
    ASSERT_TRUE(wal.commit_checkpoint(*seq));
    EXPECT_TRUE(wal.wants_checkpoint());
    EXPECT_EQ(wal.checkpoints(), 1u);
    // Post-checkpoint suffix: replayed from the log on top of the snapshot.
    wal.log_version(make_version("1:suffix", 99, 1, "tail"));
    wal.sync();
  }
  PartitionWal reopened(dir, opt);
  PartitionWal::ReplayStats stats;
  const std::vector<store::Version> got = replay_versions(reopened, &stats);
  EXPECT_TRUE(stats.snapshot_loaded);
  EXPECT_EQ(stats.snapshot_versions, 8u);
  EXPECT_EQ(stats.log_versions, 2u);
  ASSERT_EQ(got.size(), 10u);
  EXPECT_EQ(got.back().value, "tail");
}

/// Drives `count` checkpoints through wal, appending two versions before
/// each; returns every version logged (ut increasing across calls).
std::vector<store::Version> drive_checkpoints(PartitionWal& wal,
                                              store::PartitionStore& store,
                                              VersionVector& vv, int count,
                                              Timestamp* next_ut) {
  std::vector<store::Version> logged;
  for (int c = 0; c < count; ++c) {
    for (int i = 0; i < 2; ++i) {
      const Timestamp ut = (*next_ut)++;
      const store::Version v = make_version("1:p" + std::to_string(ut), ut, 0,
                                            "x" + std::to_string(c));
      wal.log_version(v);
      store.insert(v);
      vv.raise(v.sr, v.ut);
      logged.push_back(v);
    }
    wal.sync();
    EXPECT_TRUE(wal.wants_checkpoint());
    const auto seq = wal.begin_checkpoint(store, vv);
    EXPECT_TRUE(seq.has_value() && wal.commit_checkpoint(*seq));
  }
  return logged;
}

TEST(WalTest, PruneKeepsTwoNewestSnapshotsAndTheirSegments) {
  const std::string dir = fresh_dir("prune");
  PartitionWal::Options opt;
  opt.checkpoint_bytes = 1;
  store::PartitionStore store;
  VersionVector vv(3);
  Timestamp next_ut = 200;
  {
    PartitionWal wal(dir, opt);
    drive_checkpoints(wal, store, vv, 4, &next_ut);
  }
  std::vector<std::string> snaps;
  std::vector<std::string> segments;
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.ends_with(".snap")) snaps.push_back(name);
    if (name.ends_with(".log")) segments.push_back(name);
  }
  std::sort(snaps.begin(), snaps.end());
  // The newest snapshot plus one older fallback line survive; everything
  // their coverage obsoletes is gone.
  ASSERT_EQ(snaps.size(), 2u);
  const std::string older_floor =
      snaps.front().substr(5, 8);  // "snap-XXXXXXXX.snap"
  for (const std::string& seg : segments) {
    EXPECT_GE(seg.substr(4, 8), older_floor) << seg;
  }
}

TEST(WalTest, CorruptNewestSnapshotFallsBackToOlderLine) {
  const std::string dir = fresh_dir("snap_fallback");
  PartitionWal::Options opt;
  opt.checkpoint_bytes = 1;
  store::PartitionStore store;
  VersionVector vv(3);
  Timestamp next_ut = 300;
  std::vector<store::Version> logged;
  {
    PartitionWal wal(dir, opt);
    logged = drive_checkpoints(wal, store, vv, 2, &next_ut);
    wal.log_version(make_version("1:tail", next_ut, 1, "tail"));
    logged.push_back(make_version("1:tail", next_ut, 1, "tail"));
    wal.sync();
  }
  // Corrupt the newest snapshot's body: recovery must reject it and rebuild
  // from the older snapshot + retained segment suffix — zero data loss.
  std::vector<std::string> snaps;
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.ends_with(".snap")) snaps.push_back(name);
  }
  std::sort(snaps.begin(), snaps.end());
  ASSERT_EQ(snaps.size(), 2u);
  const fs::path newest = fs::path(dir) / snaps.back();
  {
    std::fstream f(newest, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(f.tellg());
    f.seekg(size - 3);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);  // guaranteed corruption
    f.seekp(size - 3);
    f.write(&byte, 1);
  }
  PartitionWal reopened(dir, opt);
  PartitionWal::ReplayStats stats;
  const std::vector<store::Version> got = replay_versions(reopened, &stats);
  EXPECT_TRUE(stats.snapshot_loaded);
  ASSERT_EQ(got.size(), logged.size());
  std::vector<Timestamp> got_uts;
  std::vector<Timestamp> want_uts;
  for (const auto& v : got) got_uts.push_back(v.ut);
  for (const auto& v : logged) want_uts.push_back(v.ut);
  std::sort(got_uts.begin(), got_uts.end());
  std::sort(want_uts.begin(), want_uts.end());
  EXPECT_EQ(got_uts, want_uts);
}

/// A store whose snapshot spans several kSnapshotChunkBytes chunks:
/// `keys` keys of 512 B values, every fourth key with a second version.
void fill_large_store(store::PartitionStore& store, VersionVector& vv,
                      int keys) {
  for (int i = 0; i < keys; ++i) {
    for (int k = 0; k < (i % 4 == 0 ? 2 : 1); ++k) {
      const Timestamp ut = 10'000 + 2 * i + k;
      store::Version v = make_version("1:large" + std::to_string(i), ut,
                                      static_cast<DcId>(i % 3),
                                      std::string(512, static_cast<char>(
                                                           'a' + i % 26)));
      v.opt_origin = i % 5 == 0;
      store.insert(v);
      vv.raise(v.sr, v.ut);
    }
  }
}

std::vector<std::uint8_t> read_bytes(const fs::path& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

/// The one snap-*.snap file in `dir`.
fs::path only_snapshot(const std::string& dir) {
  std::vector<fs::path> snaps;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".snap") snaps.push_back(e.path());
  }
  EXPECT_EQ(snaps.size(), 1u);
  return snaps.empty() ? fs::path() : snaps.front();
}

void put_le(std::vector<std::uint8_t>& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_vv(std::vector<std::uint8_t>& out, const VersionVector& vv) {
  put_le(out, vv.size(), 1);
  for (std::uint32_t i = 0; i < vv.size(); ++i) {
    put_le(out, static_cast<std::uint64_t>(vv[i]), 8);
  }
}

std::uint32_t bitwise_crc32(const std::vector<std::uint8_t>& data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t byte : data) {
    crc ^= byte;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

/// The snapshot layout documented in wal_format.hpp, encoded from scratch
/// (own little-endian writer, own bitwise CRC-32) so the streaming writer
/// is pinned to the on-disk format, not to itself.
std::vector<std::uint8_t> reference_snapshot(
    const store::PartitionStore& store, const VersionVector& vv) {
  std::vector<std::uint8_t> body;
  put_vv(body, vv);
  std::uint64_t count = 0;
  for (const auto& entry : store.chains()) {
    count += entry.second.size();
  }
  put_le(body, count, 8);
  for (const auto& entry : store.chains()) {
    for (const store::VersionRecord& r : entry.second) {
      const store::Version v = r.to_version();
      const std::string key = store::key_name(v.key);
      put_le(body, key.size(), 2);
      body.insert(body.end(), key.begin(), key.end());
      put_le(body, v.value.size(), 4);
      body.insert(body.end(), v.value.begin(), v.value.end());
      put_le(body, v.sr, 4);
      put_le(body, static_cast<std::uint64_t>(v.ut), 8);
      put_vv(body, v.dv);
      put_le(body, v.opt_origin ? 1 : 0, 1);
    }
  }
  std::vector<std::uint8_t> out = {'P', 'O', 'C', 'C', 'S', 'N', 'P', '1'};
  put_le(out, body.size(), 4);
  put_le(out, bitwise_crc32(body), 4);
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

TEST(WalTest, StreamedSnapshotIsByteEqualToTheDocumentedLayout) {
  const std::string dir = fresh_dir("byte_equal");
  store::PartitionStore store;
  VersionVector vv(3);
  fill_large_store(store, vv, 3'000);
  const std::vector<std::uint8_t> want = reference_snapshot(store, vv);
  ASSERT_GT(want.size(), 4 * kSnapshotChunkBytes);
  {
    PartitionWal wal(dir, PartitionWal::Options{0});
    const auto seq = wal.begin_checkpoint(store, vv);
    ASSERT_TRUE(seq.has_value());
    ASSERT_TRUE(wal.commit_checkpoint(*seq));
  }
  EXPECT_EQ(read_bytes(only_snapshot(dir)), want);

  // And it replays to the same store.
  PartitionWal reopened(dir, PartitionWal::Options{0});
  PartitionWal::ReplayStats stats;
  VersionVector got_vv(3);
  const std::vector<store::Version> got =
      replay_versions(reopened, &stats, &got_vv);
  EXPECT_TRUE(stats.snapshot_loaded);
  EXPECT_EQ(got.size(), store.stats().versions);
  EXPECT_EQ(got_vv, vv);
}

TEST(WalTest, CrcFlipInTheLastChunkAppliesNothingFromTheFile) {
  const std::string dir = fresh_dir("last_chunk_flip");
  store::PartitionStore store;
  VersionVector vv(3);
  fill_large_store(store, vv, 3'000);
  {
    PartitionWal wal(dir, PartitionWal::Options{0});
    const auto seq = wal.begin_checkpoint(store, vv);
    ASSERT_TRUE(seq.has_value());
    ASSERT_TRUE(wal.commit_checkpoint(*seq));
  }
  const fs::path snap = only_snapshot(dir);
  const auto size = static_cast<std::streamoff>(fs::file_size(snap));
  ASSERT_GT(size, static_cast<std::streamoff>(3 * kSnapshotChunkBytes));
  {
    std::fstream f(snap, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(size - 100);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    f.seekp(size - 100);
    f.write(&byte, 1);
  }
  // Every chunk before the flip decodes cleanly, yet none of its versions
  // may reach the store: the whole file is validated before any is applied.
  PartitionWal reopened(dir, PartitionWal::Options{0});
  PartitionWal::ReplayStats stats;
  const std::vector<store::Version> got = replay_versions(reopened, &stats);
  EXPECT_FALSE(stats.snapshot_loaded);
  EXPECT_EQ(stats.snapshot_versions, 0u);
  EXPECT_TRUE(got.empty());
}

TEST(WalTest, WriteFailureMidCutKeepsTheOlderLine) {
  const std::string dir = fresh_dir("cut_failure");
  PartitionWal::Options opt;
  opt.checkpoint_bytes = 1;
  store::PartitionStore store;
  VersionVector vv(3);
  Timestamp next_ut = 500;
  std::vector<store::Version> logged;
  {
    PartitionWal wal(dir, opt);
    logged = drive_checkpoints(wal, store, vv, 1, &next_ut);
    // Grow the store past one chunk, then cap the file size so the stream
    // fails after its first chunk: write(2) returns EFBIG once SIGXFSZ is
    // ignored.
    fill_large_store(store, vv, 1'000);
    for (const auto& entry : store.chains()) {
      for (const store::VersionRecord& r : entry.second) {
        if (r.ut() >= 10'000) {
          wal.log_version(r.to_version());
          logged.push_back(r.to_version());
        }
      }
    }
    wal.sync();
    ASSERT_TRUE(wal.wants_checkpoint());
    rlimit old_limit{};
    ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &old_limit), 0);
    const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
    rlimit capped = old_limit;
    capped.rlim_cur = kSnapshotChunkBytes + kSnapshotChunkBytes / 2;
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);
    const auto seq = wal.begin_checkpoint(store, vv);
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &old_limit), 0);
    std::signal(SIGXFSZ, old_handler);

    EXPECT_FALSE(seq.has_value());
    EXPECT_EQ(wal.checkpoint_failures(), 1u);
    EXPECT_EQ(wal.checkpoints(), 1u);
    for (const auto& e : fs::directory_iterator(dir)) {
      EXPECT_NE(e.path().extension(), ".tmp") << e.path();
    }
    // The pending flag is clear: the next full segment checkpoints again.
    wal.log_version(make_version("1:after", next_ut, 2, "after"));
    logged.push_back(make_version("1:after", next_ut, 2, "after"));
    wal.sync();
    EXPECT_TRUE(wal.wants_checkpoint());
  }
  // Recovery: the older snapshot plus every segment since — nothing lost.
  PartitionWal reopened(dir, opt);
  PartitionWal::ReplayStats stats;
  const std::vector<store::Version> got = replay_versions(reopened, &stats);
  EXPECT_TRUE(stats.snapshot_loaded);
  std::vector<Timestamp> got_uts;
  std::vector<Timestamp> want_uts;
  for (const auto& v : got) got_uts.push_back(v.ut);
  for (const auto& v : logged) want_uts.push_back(v.ut);
  std::sort(got_uts.begin(), got_uts.end());
  std::sort(want_uts.begin(), want_uts.end());
  EXPECT_EQ(got_uts, want_uts);
}

}  // namespace
}  // namespace pocc::wal
