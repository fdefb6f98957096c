#include "wal/wal_manager.hpp"

#include <cstdio>
#include <utility>

#include "common/assert.hpp"

namespace pocc::wal {

WalManager::WalManager(std::string data_dir, PartitionWal::Options opt)
    : data_dir_(std::move(data_dir)), opt_(opt) {
  POCC_ASSERT_MSG(!data_dir_.empty(), "WalManager needs a data directory");
  flusher_ = std::thread([this] { run_flusher(); });
}

WalManager::~WalManager() { stop(); }

PartitionWal& WalManager::wal_for(PartitionId part) {
  auto it = wals_.find(part);
  if (it == wals_.end()) {
    char sub[16];
    std::snprintf(sub, sizeof(sub), "/p%u", part);
    it = wals_
             .emplace(part,
                      std::make_unique<PartitionWal>(data_dir_ + sub, opt_))
             .first;
  }
  return *it->second;
}

void WalManager::submit_checkpoint(PartitionWal* wal, std::uint64_t seq) {
  {
    std::lock_guard lk(mu_);
    if (stopping_) return;
    queue_.push_back(Pending{wal, seq});
  }
  cv_.notify_one();
}

std::uint64_t WalManager::checkpoints_committed() const {
  std::uint64_t n = 0;
  for (const auto& [part, wal] : wals_) n += wal->checkpoints();
  return n;
}

std::uint64_t WalManager::checkpoints_failed() const {
  std::uint64_t n = 0;
  for (const auto& [part, wal] : wals_) n += wal->checkpoint_failures();
  return n;
}

void WalManager::stop() {
  {
    std::lock_guard lk(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_one();
  if (flusher_.joinable()) flusher_.join();
}

void WalManager::run_flusher() {
  std::unique_lock lk(mu_);
  for (;;) {
    cv_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
    // Drain even when stopping: a begin_checkpoint already rotated the log,
    // and dropping the commit would orphan the rotation until the next one.
    if (queue_.empty()) break;
    const Pending p = queue_.front();
    queue_.pop_front();
    lk.unlock();
    p.wal->commit_checkpoint(p.seq);
    lk.lock();
  }
}

}  // namespace pocc::wal
