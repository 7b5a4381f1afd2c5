// bank_transfer: implementing your own engine and stored procedure on the
// public Database/Session API. Accounts are range-partitioned; a Transfer
// moves money between two accounts (multi-partition when they live on
// different partitions) and aborts on insufficient funds. The registered
// procedure's router derives the participating partitions from the
// arguments — there is no Workload subclass, just an engine, a descriptor,
// and sessions. The invariant checked at the end — total money is
// conserved — holds only if the concurrency control scheme is serializable,
// so this example doubles as a demonstration of the guarantees.
//
//   $ ./build/example_bank_transfer
//
#include <cstdio>
#include <memory>
#include <string>

#include "cc/scheme_registry.h"
#include "db/closed_loop.h"
#include "db/database.h"
#include "engine/engine.h"
#include "storage/hash_table.h"

using namespace partdb;

namespace {

constexpr int kAccountsPerPartition = 1000;
constexpr int64_t kInitialBalance = 100;

// ----------------------------------------------------------- payloads -----

struct TransferArgs : public Payload {
  int64_t from = 0;  // global account ids
  int64_t to = 0;
  int64_t amount = 0;
  size_t ByteSize() const override { return 24; }
};

struct TransferResult : public Payload {
  int64_t from_balance = 0;
  size_t ByteSize() const override { return 8; }
};

// ------------------------------------------------------------- engine -----

class BankEngine : public Engine {
 public:
  BankEngine(PartitionId pid, int /*num_partitions*/) : pid_(pid) {
    for (int i = 0; i < kAccountsPerPartition; ++i) {
      accounts_.Put(GlobalId(pid, i), kInitialBalance);
    }
  }

  static int64_t GlobalId(PartitionId p, int local) {
    return static_cast<int64_t>(p) * kAccountsPerPartition + local;
  }
  static PartitionId PartitionOf(int64_t account) {
    return static_cast<PartitionId>(account / kAccountsPerPartition);
  }

  ExecResult Execute(const Payload& payload, int /*round*/, const Payload* /*round_input*/,
                     UndoBuffer* undo, WorkMeter* meter) override {
    const auto& a = PayloadCast<TransferArgs>(payload);
    ExecResult res;
    auto adjust = [&](int64_t account, int64_t delta) {
      int64_t* bal = accounts_.Find(static_cast<uint64_t>(account), meter);
      if (bal == nullptr) return false;
      if (undo != nullptr) {
        const int64_t old = *bal;
        undo->Add([this, account, old]() {
          *accounts_.Find(static_cast<uint64_t>(account)) = old;
        });
      }
      *bal += delta;
      if (meter != nullptr) {
        meter->reads++;
        meter->writes++;
      }
      return true;
    };
    auto result = std::make_shared<TransferResult>();
    if (PartitionOf(a.from) == pid_) {
      // Insufficient funds is a user abort: it must roll the whole
      // (possibly distributed) transaction back.
      const int64_t* bal = accounts_.Find(static_cast<uint64_t>(a.from), meter);
      if (bal == nullptr || *bal < a.amount) {
        res.aborted = true;
        return res;
      }
      adjust(a.from, -a.amount);
      result->from_balance = *accounts_.Find(static_cast<uint64_t>(a.from));
    }
    if (PartitionOf(a.to) == pid_) adjust(a.to, a.amount);
    res.result = std::move(result);
    return res;
  }

  void LockSet(const Payload& payload, int /*round*/,
               std::vector<LockRequest>* out) const override {
    const auto& a = PayloadCast<TransferArgs>(payload);
    if (PartitionOf(a.from) == pid_) {
      out->push_back({Mix64(static_cast<uint64_t>(a.from)), true});
    }
    if (PartitionOf(a.to) == pid_) {
      out->push_back({Mix64(static_cast<uint64_t>(a.to)), true});
    }
  }

  uint64_t StateHash() const override {
    uint64_t h = 0;
    accounts_.ForEach([&h](const uint64_t& k, const int64_t& v) {
      h ^= Mix64(k ^ Mix64(static_cast<uint64_t>(v)));
    });
    return h;
  }

  int64_t TotalMoney() const {
    int64_t total = 0;
    accounts_.ForEach([&total](const uint64_t&, const int64_t& v) { total += v; });
    return total;
  }

 private:
  PartitionId pid_;
  HashTable<uint64_t, int64_t> accounts_;
};

// ----------------------------------------------------------- procedure ---

/// The "transfer" stored procedure: fragment logic lives in BankEngine; the
/// descriptor carries what the client library needs — routing derived from
/// the arguments, and the user-abort annotation (insufficient funds).
ProcedureDescriptor TransferProcedure() {
  ProcedureDescriptor d;
  d.name = "transfer";
  d.route = [](const Payload& payload) {
    const auto& a = PayloadCast<TransferArgs>(payload);
    TxnRouting r;
    r.participants.push_back(BankEngine::PartitionOf(a.from));
    const PartitionId p_to = BankEngine::PartitionOf(a.to);
    if (p_to != r.participants[0]) r.participants.push_back(p_to);
    r.can_abort = true;  // insufficient funds aborts
    return r;
  };
  return d;
}

/// Random transfer arguments: 25% of transfers cross partitions.
PayloadPtr NextTransfer(int num_partitions, Rng& rng) {
  auto args = std::make_shared<TransferArgs>();
  const PartitionId p_from = static_cast<PartitionId>(rng.Uniform(num_partitions));
  PartitionId p_to = p_from;
  if (rng.Bernoulli(0.25) && num_partitions > 1) {
    p_to = static_cast<PartitionId>(rng.Uniform(num_partitions - 1));
    if (p_to >= p_from) p_to++;
  }
  args->from = BankEngine::GlobalId(p_from, static_cast<int>(rng.Uniform(kAccountsPerPartition)));
  args->to = BankEngine::GlobalId(p_to, static_cast<int>(rng.Uniform(kAccountsPerPartition)));
  args->amount = static_cast<int64_t>(rng.UniformRange(1, 50));
  return args;
}

}  // namespace

int main() {
  const int kPartitions = 4;
  std::printf("bank_transfer: %d partitions x %d accounts, 25%% cross-partition transfers\n\n",
              kPartitions, kAccountsPerPartition);

  for (const std::string& scheme : CcSchemeRegistry::Global().Names()) {
    DbOptions options;
    options.scheme = scheme;
    options.mode = RunMode::kSimulated;
    options.num_partitions = kPartitions;
    options.max_sessions = 24;
    options.engine_factory = [](PartitionId pid) -> std::unique_ptr<Engine> {
      return std::make_unique<BankEngine>(pid, 4);
    };
    options.procedures.push_back(TransferProcedure());
    auto db = Database::Open(options);

    ClosedLoopOptions loop;
    loop.num_clients = 24;
    loop.next = [kPartitions, proc = db->proc("transfer")](int /*client*/, Rng& rng) {
      return Invocation{proc, NextTransfer(kPartitions, rng)};
    };
    loop.warmup = Micros(100000);
    loop.measure = Micros(400000);
    Metrics m = RunClosedLoop(*db, loop);
    db->Close();

    // The serializability guarantee in one number: money is conserved.
    int64_t total = 0;
    for (PartitionId p = 0; p < kPartitions; ++p) {
      total += static_cast<BankEngine&>(db->engine(p)).TotalMoney();
    }
    const int64_t expected =
        static_cast<int64_t>(kPartitions) * kAccountsPerPartition * kInitialBalance;
    std::printf("%-12s %8.0f txn/s  insufficient-funds aborts=%llu  money %s\n",
                scheme.c_str(), m.Throughput(),
                static_cast<unsigned long long>(m.user_aborts),
                total == expected ? "conserved ✓" : "LOST — BUG!");
    if (total != expected) return 1;
  }
  return 0;
}
