#include "db/serializability.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "db/database.h"
#include "engine/replay.h"
#include "msg/wire.h"

namespace partdb {
namespace {

/// One transaction of the union history: its record in each participant's
/// log, in routing order, and its conflict successors.
struct Node {
  TxnId id = kInvalidTxn;
  std::vector<std::pair<PartitionId, const CommitRecord*>> copies;
  std::vector<std::pair<int, PartitionId>> out;  // (successor, partition of the conflict)
  int in_degree = 0;
};

/// Per data item of one partition: the last writer and the readers since.
struct ItemState {
  int writer = -1;
  std::vector<int> readers;
};

std::string Serialized(const Payload* p) {
  std::string s;
  if (p == nullptr) return s;
  WireWriter w(&s);
  p->SerializeTo(w);
  return s;
}

class Checker {
 public:
  Checker(const ProcedureRegistry& registry, const EngineFactory& factory,
          const CommitLogs& logs)
      : registry_(registry), logs_(logs) {
    for (PartitionId p = 0; p < static_cast<PartitionId>(logs.size()); ++p) {
      engines_.push_back(factory(p));
    }
  }

  SerializabilityReport Run() {
    SerializabilityReport report;
    std::vector<int> order;
    if (Collect(&report.error) && CheckParticipants(&report.error)) {
      for (PartitionId p = 0; p < static_cast<PartitionId>(logs_.size()); ++p) AddConflicts(p);
      if (TopologicalOrder(&order, &report.error)) {
        for (int n : order) {
          if (!Replay(n, &report.error)) break;
        }
      }
    }
    if (report.error.empty()) {
      for (const auto& e : engines_) report.state_hashes.push_back(e->StateHash());
    }
    return report;
  }

 private:
  /// One node per transaction id, with every partition's copy of it.
  bool Collect(std::string* error) {
    size_t records = 0;
    for (const auto* log : logs_) records += log->size();
    index_.reserve(records);
    nodes_.reserve(records);
    for (PartitionId p = 0; p < static_cast<PartitionId>(logs_.size()); ++p) {
      for (const CommitRecord& rec : *logs_[p]) {
        auto [it, fresh] = index_.emplace(rec.txn_id, static_cast<int>(nodes_.size()));
        if (fresh) nodes_.emplace_back().id = rec.txn_id;
        Node& n = nodes_[it->second];
        if (!n.copies.empty() && n.copies.back().first == p) {
          *error = Txn(n.id) + " is in partition " + std::to_string(p) + "'s log twice";
          return false;
        }
        n.copies.emplace_back(p, &rec);
      }
    }
    return true;
  }

  /// A multi-partition record must be in each participant's log and no
  /// other; its copies are put in routing order (the order the coordinator
  /// hands round results to the continuation).
  bool CheckParticipants(std::string* error) {
    for (Node& n : nodes_) {
      const CommitRecord& rec = *n.copies.front().second;
      if (!rec.multi_partition) {
        if (n.copies.size() == 1) continue;
        *error = Txn(n.id) + " is single-partition but in " + std::to_string(n.copies.size()) +
                 " partitions' logs";
        return false;
      }
      const TxnRouting route = registry_.Get(rec.proc).route(*rec.args);
      std::vector<std::pair<PartitionId, const CommitRecord*>> ordered;
      for (PartitionId q : route.participants) {
        auto it = std::find_if(n.copies.begin(), n.copies.end(),
                               [q](const auto& c) { return c.first == q; });
        if (it == n.copies.end()) {
          *error = "multi-partition " + Txn(n.id) + " is missing from participant partition " +
                   std::to_string(q) + "'s log";
          return false;
        }
        ordered.push_back(*it);
      }
      if (ordered.size() != n.copies.size()) {
        *error = "multi-partition " + Txn(n.id) + " is in the log of a non-participant";
        return false;
      }
      n.copies = std::move(ordered);
    }
    return true;
  }

  /// Conflict edges of partition `p`, in log order: a read follows the
  /// item's last writer, and a write follows that writer and every reader
  /// since. Linear in the accesses. A transaction that names an item twice
  /// adds only a self-edge (dropped) or a duplicate edge (harmless).
  void AddConflicts(PartitionId p) {
    std::unordered_map<uint64_t, ItemState> items;
    std::vector<LockRequest> access;
    for (const CommitRecord& rec : *logs_[p]) {
      const int n = index_.at(rec.txn_id);
      access.clear();
      const int rounds = rec.round_inputs.empty() ? 1 : static_cast<int>(rec.round_inputs.size());
      for (int r = 0; r < rounds; ++r) engines_[p]->LockSet(*rec.args, r, &access);
      for (const LockRequest& a : access) {
        ItemState& item = items[a.lock_id];
        if (item.writer >= 0) AddEdge(item.writer, n, p);
        if (!a.exclusive) {
          item.readers.push_back(n);
          continue;
        }
        for (int reader : item.readers) AddEdge(reader, n, p);
        item.readers.clear();
        item.writer = n;
      }
    }
  }

  void AddEdge(int from, int to, PartitionId p) {
    if (from == to) return;
    nodes_[from].out.emplace_back(to, p);
    ++nodes_[to].in_degree;
  }

  /// Kahn's algorithm, first-seen order among ready transactions. On a
  /// cycle, names one.
  bool TopologicalOrder(std::vector<int>* order, std::string* error) {
    std::vector<int> in_degree(nodes_.size());
    std::deque<int> ready;
    for (size_t n = 0; n < nodes_.size(); ++n) {
      in_degree[n] = nodes_[n].in_degree;
      if (in_degree[n] == 0) ready.push_back(static_cast<int>(n));
    }
    while (!ready.empty()) {
      const int n = ready.front();
      ready.pop_front();
      order->push_back(n);
      for (const auto& [succ, p] : nodes_[n].out) {
        if (--in_degree[succ] == 0) ready.push_back(succ);
      }
    }
    if (order->size() == nodes_.size()) return true;
    *error = "conflict cycle: " + Cycle(in_degree);
    return false;
  }

  /// Every transaction Kahn's algorithm left has a left predecessor, so
  /// walking predecessors from any of them must revisit one: that loop is a
  /// cycle.
  std::string Cycle(const std::vector<int>& in_degree) {
    std::vector<std::pair<int, PartitionId>> pred(nodes_.size(), {-1, -1});
    for (size_t u = 0; u < nodes_.size(); ++u) {
      if (in_degree[u] == 0) continue;
      for (const auto& [v, p] : nodes_[u].out) {
        if (in_degree[v] != 0) pred[v] = {static_cast<int>(u), p};
      }
    }
    int start = 0;
    while (in_degree[start] == 0) ++start;
    std::vector<int> seen_at(nodes_.size(), -1);
    std::vector<int> walk;
    for (int n = start; seen_at[n] < 0; n = pred[n].first) {
      seen_at[n] = static_cast<int>(walk.size());
      walk.push_back(n);
    }
    // walk[j..k] runs backwards round the cycle; print it forwards, from
    // walk[k] back to itself.
    const int k = static_cast<int>(walk.size()) - 1;
    const int j = seen_at[pred[walk[k]].first];
    std::ostringstream s;
    s << Txn(nodes_[walk[k]].id);
    const auto step = [&](int n) {
      s << " -> " << Txn(nodes_[n].id) << " (partition " << pred[n].second << ")";
    };
    for (int i = k - 1; i >= j; --i) step(walk[i]);
    step(walk[k]);
    return s.str();
  }

  /// Replays transaction `n` on every participant, round by round, and
  /// checks each recorded round input against the one the continuation
  /// computes from the replayed results.
  bool Replay(int n, std::string* error) {
    const Node& node = nodes_[n];
    const CommitRecord& first = *node.copies.front().second;
    const size_t rounds = first.round_inputs.empty() ? 1 : first.round_inputs.size();
    // results[r][i]: round r's result at the i-th participant (the last
    // round's results feed no input).
    std::vector<std::vector<std::pair<PartitionId, PayloadPtr>>> results(rounds - 1);
    for (const auto& [p, rec] : node.copies) {
      if (rec->round_inputs.size() != first.round_inputs.size()) {
        *error = Txn(node.id) + " records a different round count at partition " +
                 std::to_string(p);
        return false;
      }
      size_t r = 0;
      bool aborted = false;
      ReplayRecord(*engines_[p], *rec, [&](const WorkMeter&, const ExecResult& res) {
        aborted = aborted || res.aborted;
        if (r + 1 < rounds) results[r].emplace_back(p, res.result);
        ++r;
      });
      if (aborted) {
        *error = "committed " + Txn(node.id) + " user-aborts on replay at partition " +
                 std::to_string(p);
        return false;
      }
    }
    const ProcedureDescriptor& proc = registry_.Get(first.proc);
    if (rounds > 1 && proc.round_input == nullptr) {
      *error = Txn(node.id) + " records round inputs, but " + proc.name + " has no continuation";
      return false;
    }
    for (size_t r = 1; r < rounds; ++r) {
      const std::string want =
          Serialized(proc.round_input(*first.args, static_cast<int>(r), results[r - 1]).get());
      for (const auto& [p, rec] : node.copies) {
        if (Serialized(rec->round_inputs[r].get()) == want) continue;
        *error = Txn(node.id) + " round " + std::to_string(r) + " input recorded at partition " +
                 std::to_string(p) + " differs from the one a serial replay computes" +
                 Neighbours(n);
        return false;
      }
    }
    return true;
  }

  /// "; it is ordered after txn A (partition p), before txn B (...)": the
  /// transactions `n` conflicts with directly, and where.
  std::string Neighbours(int n) const {
    std::ostringstream s;
    for (size_t u = 0; u < nodes_.size(); ++u) {
      for (const auto& [v, p] : nodes_[u].out) {
        if (v == n) s << ", after " << Txn(nodes_[u].id) << " (partition " << p << ")";
      }
    }
    for (const auto& [v, p] : nodes_[n].out) {
      s << ", before " << Txn(nodes_[v].id) << " (partition " << p << ")";
    }
    const std::string list = s.str();
    return list.empty() ? "" : "; it is ordered" + list.substr(1);
  }

  static std::string Txn(TxnId id) { return "txn " + std::to_string(id); }

  const ProcedureRegistry& registry_;
  const CommitLogs& logs_;
  std::vector<std::unique_ptr<Engine>> engines_;
  std::vector<Node> nodes_;
  std::unordered_map<TxnId, int> index_;
};

}  // namespace

SerializabilityReport CheckSerializable(const ProcedureRegistry& registry,
                                        const EngineFactory& factory, const CommitLogs& logs) {
  return Checker(registry, factory, logs).Run();
}

std::string CheckSerializable(Database& db, const CommitLogs& logs) {
  const int partitions = db.options().num_partitions;
  if (static_cast<int>(logs.size()) != partitions) {
    return std::to_string(logs.size()) + " logs for " + std::to_string(partitions) +
           " partitions";
  }
  const SerializabilityReport report =
      CheckSerializable(db.registry(), db.options().engine_factory, logs);
  if (!report.error.empty()) return report.error;
  for (PartitionId p = 0; p < partitions; ++p) {
    if (report.state_hashes[p] != db.engine(p).StateHash()) {
      return "partition " + std::to_string(p) + "'s live state differs from the serial replay";
    }
  }
  return "";
}

std::string CheckSerializable(Database& db) {
  CommitLogs logs;
  for (PartitionId p = 0; p < db.options().num_partitions; ++p) logs.push_back(&db.commit_log(p));
  return CheckSerializable(db, logs);
}

}  // namespace partdb
