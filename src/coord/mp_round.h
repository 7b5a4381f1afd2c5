// MpRound: one transaction's rounds and 2PC, driven by the central
// coordinator (paper §3.3) or, under locking, by the session (§4.3). It keeps
// the ClientRequest, builds every FragmentRequest from it (a single-partition
// one too), holds one response slot per participant, computes the next
// round's input, picks the result and counts the DurableNotices a held
// commit reply waits for. Stale-response filters stay with the callers.
#ifndef PARTDB_COORD_MP_ROUND_H_
#define PARTDB_COORD_MP_ROUND_H_

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "common/types.h"
#include "coord/txn_continuations.h"
#include "msg/message.h"

namespace partdb {

class MpRound {
 public:
  /// Tracks `req` from round 0. `global_seq` is the central coordinator's
  /// order stamp; the session's transactions are not globally sequenced.
  void Start(ClientRequest req, uint64_t global_seq = 0);

  const ClientRequest& request() const { return req_; }
  TxnId txn_id() const { return req_.txn_id; }
  uint32_t attempt() const { return req_.attempt; }
  int round() const { return round_; }
  bool last_round() const { return round_ == req_.num_rounds - 1; }
  bool single_partition() const { return req_.participants.size() == 1 && req_.num_rounds == 1; }

  /// The current round's fragment, the same for every participant; the
  /// partition answers `reply_to`. The 2PC prepare rides on the last round.
  FragmentRequest Fragment(NodeId reply_to) const;

  /// Stores `r`, which the caller has checked is current, in its
  /// participant's slot; a second response for a filled slot is ignored.
  /// Returns true when `r` completes the round.
  bool Collect(FragmentResponse r);
  /// Empties `p`'s slot, if `p` is a participant (its response is stale).
  void Forget(PartitionId p);
  bool complete() const { return missing_ == 0; }
  /// The current round's responses in participant order (once complete).
  const std::vector<FragmentResponse>& responses() const { return resp_; }
  bool aborted() const;

  /// Moves to the next round, whose input the application computes from
  /// this round's results in participant order.
  void NextRound(TxnContinuations& continuations);
  /// Starts over at round 0 as attempt + 1 (after a system abort).
  void Retry() {
    ++req_.attempt;
    Enter(0, nullptr);
  }
  /// The first non-null result of the current round, in participant order.
  PayloadPtr Result() const;

  /// Holds the commit reply until every participant's DurableNotice.
  void AwaitNotices() { notices_due_ = static_cast<uint32_t>(req_.participants.size()); }
  /// Counts one DurableNotice; true when it was the last one due.
  bool OnNotice() {
    PARTDB_CHECK(notices_due_ > 0);
    return --notices_due_ == 0;
  }

  /// Drops the payloads this holds, keeping its buffers for the next Start.
  void Release() {
    req_.args = nullptr;
    round_input_ = nullptr;
    resp_.clear();
  }

 private:
  /// Index of `p` in the participants, or -1.
  int Slot(PartitionId p) const;
  /// Makes `round` current, with empty response slots.
  void Enter(int round, PayloadPtr input);

  ClientRequest req_;
  uint64_t global_seq_ = 0;
  int round_ = 0;
  PayloadPtr round_input_;
  std::vector<FragmentResponse> resp_;  // per participant; empty: partition -1
  size_t missing_ = 0;
  uint32_t notices_due_ = 0;
};

}  // namespace partdb

#endif  // PARTDB_COORD_MP_ROUND_H_
