#include "cc/cc_scheme.h"

namespace partdb {

void ReplySp(PartitionExec* part, const FragmentRequest& f, const ExecResult& r, UndoBuffer* undo) {
  ClientResponse resp;
  resp.txn_id = f.txn_id;
  resp.attempt = f.attempt;
  resp.committed = !r.aborted;
  resp.result = r.result;
  if (r.aborted) {
    if (undo != nullptr) {
      part->ChargeUndo(undo->size());
      undo->Rollback();
    }
    part->Send(f.coordinator, std::move(resp));
    return;
  }
  if (undo != nullptr) undo->Clear();
  part->CommitSp({f.txn_id, false, f.proc, f.args, {f.round_input}}, f.coordinator,
                 std::move(resp));
}

FragmentResponse VoteMp(PartitionExec* part, const FragmentRequest& f, const ExecResult& r,
                        const CommitRecord& rec, uint32_t epoch, TxnId depends_on) {
  FragmentResponse resp;
  resp.txn_id = f.txn_id;
  resp.attempt = f.attempt;
  resp.round = f.round;
  resp.partition = part->partition_id();
  resp.epoch = epoch;
  resp.depends_on = depends_on;
  resp.result = r.result;
  resp.vote = r.aborted ? Vote::kAbort : (f.last_round ? Vote::kCommit : Vote::kNone);
  if (resp.vote == Vote::kCommit) {
    part->Charge(part->cost().twopc_vote);
    part->PrepareMp(rec, f.coordinator, resp);
  } else {
    part->Send(f.coordinator, resp);
  }
  return resp;
}

}  // namespace partdb
