// Process-level durability root: one PartitionWal per hosted partition under
// `<data_dir>/p<part>/`, plus the background checkpoint flusher.
//
// Division of labor with the runtime: the engine's worker thread owns the hot
// path (append, group-commit sync) and step 1 of a checkpoint — rotating the
// segment and streaming the consistent cut into snap-<seq>.tmp through a
// fixed chunk buffer, both thread-affine with the engine. The flusher thread
// here does the rest, which needs no engine state: fsync the tmp file,
// rename it, fsync the directory and prune (PartitionWal::commit_checkpoint,
// safe off the owner thread by design). A queued checkpoint is a partition
// and a sequence number; no snapshot bytes are held in memory.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/types.hpp"
#include "wal/partition_wal.hpp"

namespace pocc::wal {

class WalManager {
 public:
  /// `data_dir` is the process's durable root (poccd --data-dir).
  explicit WalManager(std::string data_dir,
                      PartitionWal::Options opt = PartitionWal::Options());
  ~WalManager();

  WalManager(const WalManager&) = delete;
  WalManager& operator=(const WalManager&) = delete;

  /// The WAL for one partition, created (and its torn tail healed) on first
  /// use. Setup-phase only: callers must not race this with each other.
  PartitionWal& wal_for(PartitionId part);

  /// Queue the durable commit of a streamed snap-<seq>.tmp on the flusher
  /// thread (step 2 of PartitionWal's checkpoint protocol).
  void submit_checkpoint(PartitionWal* wal, std::uint64_t seq);

  /// Drain the checkpoint queue and join the flusher. Idempotent.
  void stop();

  [[nodiscard]] const std::string& data_dir() const { return data_dir_; }
  /// Summed over the partitions (thread-safe once wal_for() calls are done).
  [[nodiscard]] std::uint64_t checkpoints_committed() const;
  /// Failures at either checkpoint step, summed over the partitions.
  [[nodiscard]] std::uint64_t checkpoints_failed() const;

 private:
  struct Pending {
    PartitionWal* wal = nullptr;
    std::uint64_t seq = 0;
  };

  void run_flusher();

  std::string data_dir_;
  PartitionWal::Options opt_;
  std::unordered_map<PartitionId, std::unique_ptr<PartitionWal>> wals_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool stopping_ = false;
  std::thread flusher_;
};

}  // namespace pocc::wal
