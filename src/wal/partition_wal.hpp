// One partition's durable state on disk: a directory of append-only WAL
// segments plus point-in-time snapshots, with group-commit fsync.
//
//   <dir>/wal-<seq>.log    append-only record segments (wal_format.hpp)
//   <dir>/snap-<seq>.snap  snapshot covering every segment with seq' < seq
//   <dir>/snap-<seq>.tmp   in-flight snapshot (ignored by recovery)
//
// Write path (engine owner thread): log_version/log_vv append framed records
// to a userland buffer — *nothing* is externally visible yet; the runtime
// host withholds replies and sends produced while unsynced_bytes() > 0, then
// calls sync() once per drained message batch (group commit: one
// write+fdatasync covers the whole batch). A crash loses at most the
// unsynced suffix, and nothing externally visible depended on it.
//
// Checkpoint path: when the active segment outgrows the threshold the owner
// thread syncs the tail, rotates to a fresh segment and streams the
// consistent cut straight into snap-<seq>.tmp through one fixed chunk
// buffer (begin_checkpoint) — memory stays flat however large the store.
// A background thread then makes it durable (commit_checkpoint: fsync +
// rename + directory fsync) and prunes segments/snapshots the new snapshot
// obsoletes. The previous snapshot and its segment suffix are retained until
// a *newer* snapshot commits, so a corrupt snapshot file always leaves a
// valid older recovery line; a failed write at either step removes the tmp
// file and leaves that line intact.
//
// Recovery (replay): newest valid snapshot — validated whole in a first
// streamed pass, applied in a second — then every segment >= its seq in
// order; the newest segment's torn tail — an interrupted group commit — is
// truncated to the last complete record at open time.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "server/durability.hpp"
#include "stats/relaxed_counter.hpp"
#include "store/version.hpp"
#include "vclock/version_vector.hpp"

namespace pocc::store {
class PartitionStore;
}  // namespace pocc::store

namespace pocc::wal {

class PartitionWal final : public server::DurabilityLog {
 public:
  struct Options {
    /// Active-segment size that triggers a checkpoint (0 = never).
    std::uint64_t checkpoint_bytes = 4u << 20;
  };

  struct ReplayStats {
    bool snapshot_loaded = false;
    std::uint64_t snapshot_versions = 0;
    std::uint64_t log_versions = 0;
    std::uint64_t vv_records = 0;
    std::uint64_t segments_replayed = 0;
    std::uint64_t torn_bytes = 0;  // truncated off the newest segment
  };

  /// Opens (creating if needed) the partition directory, truncates the
  /// newest segment's torn tail, and opens it for appending.
  PartitionWal(std::string dir, Options opt);
  explicit PartitionWal(std::string dir)
      : PartitionWal(std::move(dir), Options()) {}
  ~PartitionWal() override;

  PartitionWal(const PartitionWal&) = delete;
  PartitionWal& operator=(const PartitionWal&) = delete;

  // --- server::DurabilityLog (owner thread) ---
  void log_version(const store::Version& v) override;
  void log_vv(const VersionVector& vv) override;

  /// Bytes appended but not yet covered by a sync() — the output-commit gate.
  [[nodiscard]] std::size_t unsynced_bytes() const { return buf_.size(); }

  /// Group commit: write the buffered records and fdatasync the segment.
  void sync();

  /// Drop appended-but-unsynced records without writing them — what a
  /// kill -9 does to the userland buffer (TcpNodeHost::crash_stop).
  void discard_unsynced() { buf_.clear(); }

  /// Replay the durable image (snapshot + segments) through the callbacks.
  /// Call before the first append of this process's lifetime.
  ReplayStats replay(const std::function<void(const store::Version&)>& on_version,
                     const std::function<void(const VersionVector&)>& on_vv);

  /// True when the active segment crossed the checkpoint threshold and no
  /// checkpoint is in flight. Acquire pairs with commit_checkpoint's
  /// release: the flusher's file work happens-before the next checkpoint.
  [[nodiscard]] bool wants_checkpoint() const {
    return opt_.checkpoint_bytes > 0 &&
           !checkpoint_pending_.load(std::memory_order_acquire) &&
           active_segment_bytes_ >= opt_.checkpoint_bytes;
  }

  /// Owner thread, step 1: sync the tail, rotate to a fresh segment and
  /// stream the cut of `store` + `vv` into snap-<seq>.tmp, where seq is the
  /// new segment's number (recovery replays segments >= it). Nothing can
  /// append between the rotation and the stream (same thread), so the cut
  /// is exactly "everything in segments < seq". Returns seq, or nullopt on
  /// a write failure: the tmp file is removed, the failure counted and the
  /// older recovery line left intact.
  std::optional<std::uint64_t> begin_checkpoint(
      const store::PartitionStore& store, const VersionVector& vv);

  /// Any thread, step 2: fsync snap-<seq>.tmp, rename it to snap-<seq> and
  /// prune what it obsoletes. Returns false on I/O failure (tmp removed, the
  /// old recovery line left intact). Clears the pending flag armed by
  /// begin_checkpoint().
  bool commit_checkpoint(std::uint64_t seq);

  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] std::uint64_t active_segment_seq() const { return seq_; }
  [[nodiscard]] std::uint64_t active_segment_bytes() const {
    return active_segment_bytes_;
  }
  [[nodiscard]] std::uint64_t syncs() const { return syncs_; }
  [[nodiscard]] std::uint64_t synced_bytes() const { return synced_bytes_; }
  [[nodiscard]] std::uint64_t checkpoints() const { return checkpoints_; }
  [[nodiscard]] std::uint64_t checkpoint_failures() const {
    return checkpoint_failures_;
  }

 private:
  void open_active_segment(bool truncate_torn);

  std::string dir_;
  Options opt_;
  int fd_ = -1;
  std::uint64_t seq_ = 1;  // active segment sequence number
  std::uint64_t active_segment_bytes_ = 0;
  std::vector<std::uint8_t> buf_;  // appended, not yet written+synced
  // Set by the owner in begin_checkpoint, cleared by whichever thread
  // finishes the checkpoint (the flusher, in a running deployment).
  std::atomic<bool> checkpoint_pending_{false};
  // Relaxed so a live /metrics scrape may read them off the owner thread.
  stats::RelaxedU64 syncs_;
  stats::RelaxedU64 synced_bytes_;
  stats::RelaxedU64 checkpoints_;          // committed
  stats::RelaxedU64 checkpoint_failures_;  // at either step
  std::uint64_t replay_torn_bytes_ = 0;
};

}  // namespace pocc::wal
