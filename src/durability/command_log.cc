#include "durability/command_log.h"

#include <fcntl.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "common/logging.h"
#include "msg/wire.h"
#include "runtime/execution_context.h"

namespace partdb {

namespace {

/// Full write with EINTR/short-write handling. CHECK-fails on a real error:
/// a command log that silently loses records is worse than a crash.
void WriteAll(int fd, const char* data, size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      PARTDB_CHECK(errno == EINTR);
      continue;
    }
    data += w;
    n -= static_cast<size_t>(w);
  }
}

}  // namespace

PartitionLog::PartitionLog(Config config) : config_(std::move(config)) {
  MutexLock lock(mu_);
  next_seq_ = config_.seed.next_seq;
  segment_index_ = config_.seed.next_segment;
  // Seeded ids were appended before recovery, so every participant's first
  // post-recovery rotate captures them: the first fully-successful checkpoint
  // round already covers them everywhere and may prune them.
  mp_old_ = std::move(config_.seed.mp_history);
}

PartitionLog::~PartitionLog() { Shutdown(); }

std::string PartitionLog::SegmentPath(const std::string& dir, PartitionId p,
                                      uint64_t index) {
  return dir + "/" + LogFileName{p, index, /*checkpoint=*/false}.Format();
}

std::string PartitionLog::CheckpointPath(const std::string& dir, PartitionId p,
                                         uint64_t index) {
  return dir + "/" + LogFileName{p, index, /*checkpoint=*/true}.Format();
}

void PartitionLog::SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  PARTDB_CHECK(fd >= 0);
  PARTDB_CHECK(::fsync(fd) == 0);
  PARTDB_CHECK(::close(fd) == 0);
}

void PartitionLog::OpenSegment() {
  LogSegmentHeader h;
  h.partition = config_.partition;
  h.num_partitions = config_.num_partitions;
  h.first_seq = next_seq_;
  h.procs = config_.procs;
  std::string bytes;
  EncodeLogSegmentHeader(h, &bytes);
  const std::string path = SegmentPath(config_.dir, config_.partition, segment_index_);
  fd_ = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  PARTDB_CHECK(fd_ >= 0);
  WriteAll(fd_, bytes.data(), bytes.size());
  PARTDB_CHECK(::fsync(fd_) == 0);
  // The new directory entry must be durable before any record in this
  // segment is acknowledged: without the directory sync a power loss could
  // drop the whole file, acked group-commit batches included.
  SyncDir(config_.dir);
}

void PartitionLog::Start(ExecutionContext* report_to, NodeId partition) {
  report_to_ = report_to;
  partition_node_ = partition;
  {
    MutexLock lock(mu_);
    OpenSegment();
  }
  writer_ = std::thread([this] { WriterLoop(); });
}

void PartitionLog::ReportDurable(uint64_t through_seq) {
  if (report_to_ == nullptr) return;
  Message msg;
  msg.src = partition_node_;
  msg.dst = partition_node_;
  msg.body = LogDurable{through_seq};
  report_to_->Send(std::move(msg), report_to_->Now());
}

uint64_t PartitionLog::Append(const CommitRecord& committed) {
  PARTDB_CHECK(committed.args != nullptr);
  // The sequence is assigned at enqueue time under the lock; only the owning
  // partition worker appends, so enqueue order is sequence order.
  MutexLock lock(mu_);
  const uint64_t seq = next_seq_++;
  if (committed.multi_partition) mp_epoch_.push_back(committed.txn_id);
  AppendLogRecord(seq, committed, &pending_bytes_);
  ++pending_records_;
  // Edge-only wake: only a parked writer is signalled, and the flag is
  // cleared in the same step, so a burst costs one signal and appends made
  // while the writer holds its window open or does I/O cost none.
  if (writer_parked_) {
    writer_parked_ = false;
    ++stats_.writer_wakes;
    work_cv_.NotifyOne();
  }
  return seq;
}

void PartitionLog::CloseBatch() {
  MutexLock lock(mu_);
  closed_through_ = next_seq_ - 1;
  work_cv_.NotifyOne();
}

void PartitionLog::WriterLoop() {
  // The window is a deadline this thread sleeps to, and nothing wakes it
  // early: the default 50 us timer slack would stretch every window (and so
  // every group-commit completion) by up to that much.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::string batch_bytes;
  mu_.Lock();
  while (true) {
    while (pending_records_ == 0 && !stop_) {
      writer_parked_ = true;
      work_cv_.Wait(mu_);
    }
    writer_parked_ = false;
    if (pending_records_ == 0 && stop_) break;
    // The batch stays open for up to the window, so concurrent commits
    // share one fsync; appends during the window do not signal. A close
    // covering every pending record, or Shutdown, cuts the window short.
    if (config_.window > 0 && !stop_) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::nanoseconds(config_.window);
      bool window_ended = false;
      while (!stop_ && !window_ended && closed_through_ < next_seq_ - 1) {
        window_ended = !work_cv_.WaitUntil(mu_, deadline);
      }
      if (!stop_ && !window_ended) ++stats_.early_closes;
    }
    batch_bytes.clear();
    batch_bytes.swap(pending_bytes_);
    const uint64_t records = pending_records_;
    pending_records_ = 0;
    const uint64_t through = next_seq_ - 1;  // the batch's last record
    const bool dropped = crashed_;
    io_in_progress_ = true;
    const int fd = fd_;
    mu_.Unlock();

    if (!dropped) {
      WriteAll(fd, batch_bytes.data(), batch_bytes.size());
      PARTDB_CHECK(::fsync(fd) == 0);
    }

    mu_.Lock();
    io_in_progress_ = false;
    if (!dropped) {
      stats_.batches++;
      stats_.fsyncs++;
      stats_.records += records;
      stats_.bytes_logged += batch_bytes.size();
    }
    if (report_to_ != nullptr) stats_.deferred_completions += records;
    flush_cv_.NotifyAll();
    mu_.Unlock();
    // Reports leave outside the log lock. After Crash() they cover dropped
    // records too, so every transaction still completes.
    ReportDurable(through);
    mu_.Lock();
  }
  mu_.Unlock();
}

void PartitionLog::CheckpointRotate(CheckpointImage* img) {
  MutexLock lock(mu_);
  // The caller runs between transactions on the owning worker, so no new
  // appends can arrive: draining the writer settles everything.
  while (pending_records_ != 0 || io_in_progress_) flush_cv_.Wait(mu_);
  img->partition = config_.partition;
  img->num_partitions = config_.num_partitions;
  img->covered_seq = next_seq_ - 1;
  std::vector<TxnId>& mp = img->mp_committed;
  mp.clear();
  mp.insert(mp.end(), mp_old_.begin(), mp_old_.end());
  mp.insert(mp.end(), mp_young_.begin(), mp_young_.end());
  mp.insert(mp.end(), mp_epoch_.begin(), mp_epoch_.end());
  mp_old_.insert(mp_old_.end(), mp_young_.begin(), mp_young_.end());
  mp_young_ = std::move(mp_epoch_);
  mp_epoch_.clear();
  covered_segment_ = segment_index_;
  PARTDB_CHECK(::close(fd_) == 0);
  ++segment_index_;
  OpenSegment();
}

void PartitionLog::InstallCheckpoint(const CheckpointImage& img) {
  std::string bytes;
  EncodeCheckpoint(img, &bytes);
  const std::string path = CheckpointPath(config_.dir, config_.partition, img.covered_seq);
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  PARTDB_CHECK(fd >= 0);
  WriteAll(fd, bytes.data(), bytes.size());
  PARTDB_CHECK(::fsync(fd) == 0);
  PARTDB_CHECK(::close(fd) == 0);
  PARTDB_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0);
  SyncDir(config_.dir);
  uint64_t covered_segment = 0;
  {
    MutexLock lock(mu_);
    covered_segment = covered_segment_;
  }
  for (const auto& entry : std::filesystem::directory_iterator(config_.dir)) {
    LogFileName f;
    if (!LogFileName::Parse(entry.path().filename().string(), &f) ||
        f.partition != config_.partition) {
      continue;
    }
    const bool stale = f.checkpoint ? f.index != img.covered_seq : f.index <= covered_segment;
    if (stale) std::filesystem::remove(entry.path());
  }
}

void PartitionLog::DropCoveredMpHistory() {
  MutexLock lock(mu_);
  mp_old_.clear();
}

void PartitionLog::Shutdown() {
  {
    MutexLock lock(mu_);
    if (stop_) return;
    stop_ = true;
    work_cv_.NotifyAll();
  }
  if (writer_.joinable()) writer_.join();
  MutexLock lock(mu_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void PartitionLog::Crash() {
  MutexLock lock(mu_);
  crashed_ = true;
}

bool PartitionLog::crashed() const {
  MutexLock lock(mu_);
  return crashed_;
}

DurabilityStats PartitionLog::GetStats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace partdb
