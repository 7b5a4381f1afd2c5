#include "coord/mp_round.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace partdb {

void MpRound::Start(ClientRequest req, uint64_t global_seq) {
  req_ = std::move(req);
  global_seq_ = global_seq;
  notices_due_ = 0;
  Enter(0, nullptr);
}

FragmentRequest MpRound::Fragment(NodeId reply_to) const {
  return {.txn_id = req_.txn_id, .attempt = req_.attempt, .global_seq = global_seq_,
          .round = round_, .last_round = last_round(), .multi_partition = !single_partition(),
          .can_abort = req_.can_abort, .coordinator = reply_to, .proc = req_.proc,
          .args = req_.args, .round_input = round_input_};
}

bool MpRound::Collect(FragmentResponse r) {
  const int i = Slot(r.partition);
  PARTDB_CHECK(i >= 0);
  if (resp_[i].partition >= 0) return false;
  resp_[i] = std::move(r);
  return --missing_ == 0;
}

void MpRound::Forget(PartitionId p) {
  const int i = Slot(p);
  if (i < 0 || resp_[i].partition < 0) return;
  resp_[i] = FragmentResponse{};
  ++missing_;
}

bool MpRound::aborted() const {
  return std::any_of(resp_.begin(), resp_.end(),
                     [](const FragmentResponse& r) { return r.vote == Vote::kAbort; });
}

void MpRound::NextRound(TxnContinuations& continuations) {
  PARTDB_CHECK(complete() && !last_round());
  std::vector<std::pair<PartitionId, PayloadPtr>> prev;
  for (FragmentResponse& r : resp_) prev.emplace_back(r.partition, std::move(r.result));
  Enter(round_ + 1, continuations.NextRoundInput(req_.proc, *req_.args, round_ + 1, prev));
}

PayloadPtr MpRound::Result() const {
  for (const FragmentResponse& r : resp_) {
    if (r.result != nullptr) return r.result;
  }
  return nullptr;
}

int MpRound::Slot(PartitionId p) const {
  auto it = std::find(req_.participants.begin(), req_.participants.end(), p);
  return it == req_.participants.end() ? -1 : static_cast<int>(it - req_.participants.begin());
}

void MpRound::Enter(int round, PayloadPtr input) {
  round_ = round;
  round_input_ = std::move(input);
  resp_.assign(req_.participants.size(), FragmentResponse{});
  missing_ = req_.participants.size();
}

}  // namespace partdb
