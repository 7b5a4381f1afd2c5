#include "msg/message.h"

namespace partdb {

namespace {
constexpr size_t kHeader = 24;  // type tag, txn id, attempt, flags, checksums

size_t PayloadBytes(const PayloadPtr& p) { return p == nullptr ? 0 : p->ByteSize(); }
}  // namespace

size_t MessageByteSize(const MessageBody& body) {
  return std::visit(
      [](const auto& m) -> size_t {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, ClientRequest>) {
          return kHeader + PayloadBytes(m.args) + m.participants.size() * 4;
        } else if constexpr (std::is_same_v<T, FragmentRequest>) {
          return kHeader + PayloadBytes(m.args) + PayloadBytes(m.round_input) + 16;
        } else if constexpr (std::is_same_v<T, FragmentResponse>) {
          return kHeader + PayloadBytes(m.result) + 16;
        } else if constexpr (std::is_same_v<T, ClientResponse>) {
          return kHeader + PayloadBytes(m.result);
        } else if constexpr (std::is_same_v<T, ReplicaShip>) {
          size_t n = kHeader + PayloadBytes(m.rec.args);
          for (const auto& r : m.rec.round_inputs) n += PayloadBytes(r);
          return n;
        } else {
          return kHeader;
        }
      },
      body);
}

const char* MessageTypeName(const MessageBody& body) {
  struct Namer {
    const char* operator()(const ClientRequest&) { return "ClientRequest"; }
    const char* operator()(const FragmentRequest&) { return "FragmentRequest"; }
    const char* operator()(const FragmentResponse&) { return "FragmentResponse"; }
    const char* operator()(const DecisionMessage&) { return "Decision"; }
    const char* operator()(const ClientResponse&) { return "ClientResponse"; }
    const char* operator()(const ReplicaShip&) { return "ReplicaShip"; }
    const char* operator()(const ReplicaDecision&) { return "ReplicaDecision"; }
    const char* operator()(const ReplicaAck&) { return "ReplicaAck"; }
    const char* operator()(const TimerFire&) { return "TimerFire"; }
    const char* operator()(const DurableNotice&) { return "DurableNotice"; }
    const char* operator()(const LogDurable&) { return "LogDurable"; }
    const char* operator()(const SessionSubmit&) { return "SessionSubmit"; }
  };
  return std::visit(Namer{}, body);
}

}  // namespace partdb
