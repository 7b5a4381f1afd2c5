// Blocking concurrency control (paper §4.1, Fig. 2): at most one transaction
// is active; everything else queues. Single-partition transactions run
// without undo (unless they can user-abort); the active multi-partition
// transaction holds the partition idle through its 2PC stall.
#ifndef PARTDB_CC_BLOCKING_H_
#define PARTDB_CC_BLOCKING_H_

#include <deque>
#include <optional>

#include "cc/cc_scheme.h"

namespace partdb {

class BlockingCc : public CcScheme {
 public:
  explicit BlockingCc(PartitionExec* part) : part_(part) {}

  void OnFragment(FragmentRequest frag) override;
  void OnDecision(const DecisionMessage& d) override;
  bool Idle() const override { return !active_.has_value() && queue_.empty(); }

 private:
  struct ActiveMp {
    CommitRecord rec;
    UndoBuffer undo;
    bool finished = false;         // last fragment executed (vote sent)
    bool aborted_locally = false;  // user abort during a fragment
  };

  void Dispatch(FragmentRequest& f);
  void ExecuteSp(FragmentRequest& f);
  void StartMp(FragmentRequest& f);
  void ContinueMp(FragmentRequest& f);
  void RespondMp(const FragmentRequest& f, const ExecResult& r);
  void Drain();

  PartitionExec* part_;
  std::optional<ActiveMp> active_;
  std::deque<FragmentRequest> queue_;
  uint32_t epoch_ = 0;  // aborts processed (see FragmentResponse::epoch)
};

}  // namespace partdb

#endif  // PARTDB_CC_BLOCKING_H_
