#include "cc/blocking.h"

#include "common/logging.h"

namespace partdb {

void BlockingCc::OnFragment(FragmentRequest frag) {
  if (active_.has_value()) {
    if (frag.multi_partition && frag.txn_id == active_->rec.txn_id) {
      ContinueMp(frag);
      return;
    }
    queue_.push_back(std::move(frag));
    return;
  }
  PARTDB_DCHECK(queue_.empty());
  Dispatch(frag);
}

void BlockingCc::Dispatch(FragmentRequest& f) {
  if (!f.multi_partition) {
    ExecuteSp(f);
  } else {
    StartMp(f);
  }
}

void BlockingCc::ExecuteSp(FragmentRequest& f) {
  UndoBuffer undo;
  ExecResult r = part_->RunFragment(f, f.can_abort ? &undo : nullptr);
  ClientResponse resp;
  resp.txn_id = f.txn_id;
  resp.attempt = f.attempt;
  resp.committed = !r.aborted;
  resp.result = r.result;
  if (r.aborted) {
    part_->ChargeUndo(undo.size());
    undo.Rollback();
    part_->Send(f.coordinator, resp);
    return;
  }
  part_->CommitSp({f.txn_id, false, f.proc, f.args, {f.round_input}}, f.coordinator, resp);
}

void BlockingCc::StartMp(FragmentRequest& f) {
  active_.emplace();
  active_->rec = {f.txn_id, true, f.proc, f.args, {f.round_input}};
  ExecResult r = part_->RunFragment(f, &active_->undo);
  if (r.aborted) active_->aborted_locally = true;
  active_->finished = f.last_round;
  RespondMp(f, r);
}

void BlockingCc::ContinueMp(FragmentRequest& f) {
  PARTDB_CHECK(!active_->finished);
  active_->rec.round_inputs.push_back(f.round_input);
  ExecResult r = part_->RunFragment(f, &active_->undo);
  if (r.aborted) active_->aborted_locally = true;
  active_->finished = f.last_round;
  RespondMp(f, r);
}

void BlockingCc::RespondMp(const FragmentRequest& f, const ExecResult& r) {
  FragmentResponse resp;
  resp.txn_id = f.txn_id;
  resp.attempt = f.attempt;
  resp.round = f.round;
  resp.last_round = f.last_round;
  resp.partition = part_->partition_id();
  resp.epoch = epoch_;
  resp.result = r.result;
  resp.vote = r.aborted ? Vote::kAbort : (f.last_round ? Vote::kCommit : Vote::kNone);
  if (f.last_round && !r.aborted) {
    part_->Charge(part_->cost().twopc_vote);
    part_->PrepareMp(active_->rec, f.coordinator, resp);
    return;
  }
  part_->Send(f.coordinator, resp);
}

void BlockingCc::OnDecision(const DecisionMessage& d) {
  PARTDB_CHECK(active_.has_value());
  PARTDB_CHECK(active_->rec.txn_id == d.txn_id);
  if (d.commit) {
    PARTDB_CHECK(!active_->aborted_locally);
    active_->undo.Clear();
  } else {
    ++epoch_;
    part_->ChargeUndo(active_->undo.size());
    active_->undo.Rollback();
  }
  part_->DecideMp(active_->rec, d.commit);
  active_.reset();
  Drain();
}

void BlockingCc::Drain() {
  while (!active_.has_value() && !queue_.empty()) {
    FragmentRequest f = std::move(queue_.front());
    queue_.pop_front();
    Dispatch(f);
  }
}

}  // namespace partdb
