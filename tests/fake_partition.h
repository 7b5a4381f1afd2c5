// A PartitionExec test double: runs fragments on a real engine synchronously
// and captures every outbound message, timer, and commit-stream event so
// scheme behaviour can be asserted step by step.
#ifndef PARTDB_TESTS_FAKE_PARTITION_H_
#define PARTDB_TESTS_FAKE_PARTITION_H_

#include <memory>
#include <utility>
#include <vector>

#include "cc/cc_scheme.h"
#include "engine/engine.h"

namespace partdb {

class FakePartition : public PartitionExec {
 public:
  FakePartition(PartitionId pid, std::unique_ptr<Engine> engine)
      : pid_(pid), engine_(std::move(engine)) {}

  struct Sent {
    NodeId dst;
    MessageBody body;
  };
  /// What the backups would receive: every CommitSp ships outcome-known,
  /// every PrepareMp outcome-unknown.
  struct Ship {
    bool outcome_known;
    CommitRecord rec;
  };
  std::vector<Sent> sent;  // replies are sent at once (no backups to wait for)
  std::vector<Ship> ships;
  std::vector<std::pair<TxnId, bool>> decisions_shipped;  // every DecideMp
  std::vector<std::pair<Duration, TimerFire>> timers;
  std::vector<CommitRecord> log;  // committed records, in commit order
  Duration charged = 0;

  // Typed accessors over `sent`.
  template <typename T>
  std::vector<T> Bodies() const {
    std::vector<T> out;
    for (const auto& s : sent) {
      if (const T* m = std::get_if<T>(&s.body)) out.push_back(*m);
    }
    return out;
  }
  void ClearSent() { sent.clear(); }

  // PartitionExec:
  ExecResult RunFragment(const FragmentRequest& frag, UndoBuffer* undo,
                         WorkMeter* receipt = nullptr) override {
    WorkMeter m;
    ExecResult res =
        engine_->Execute(*frag.args, frag.round, frag.round_input.get(), undo, &m);
    charged += cost_.ExecCost(m);
    if (receipt != nullptr) *receipt = m;
    return res;
  }
  void Charge(Duration d) override { charged += d; }
  void ChargeLockWork(const WorkMeter& m) override {
    charged += cost_.LockAcquireCost(m) + cost_.LockReleaseCost(m) + cost_.LockTableCost(m);
  }
  void ChargeUndo(size_t records) override {
    charged += cost_.per_undo * static_cast<Duration>(records);
  }
  void Send(NodeId dst, MessageBody body) override { sent.push_back({dst, std::move(body)}); }
  void SetTimer(Duration d, TimerFire t) override { timers.emplace_back(d, t); }
  void CommitSp(CommitRecord rec, NodeId dst, MessageBody reply) override {
    log.push_back(rec);
    ships.push_back({true, std::move(rec)});
    sent.push_back({dst, std::move(reply)});
  }
  void PrepareMp(CommitRecord rec, NodeId dst, MessageBody vote) override {
    ships.push_back({false, std::move(rec)});
    sent.push_back({dst, std::move(vote)});
  }
  void DecideMp(const CommitRecord& rec, bool commit) override {
    if (commit) log.push_back(rec);
    decisions_shipped.emplace_back(rec.txn_id, commit);
  }
  Engine& engine() override { return *engine_; }
  const CostModel& cost() const override { return cost_; }
  Metrics& metrics() override { return metrics_; }
  PartitionId partition_id() const override { return pid_; }

 private:
  PartitionId pid_;
  std::unique_ptr<Engine> engine_;
  CostModel cost_;
  Metrics metrics_;
};

}  // namespace partdb

#endif  // PARTDB_TESTS_FAKE_PARTITION_H_
