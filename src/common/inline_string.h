// Fixed-capacity inline byte string: the value type for the microbenchmark
// key/value store (the paper uses 3-byte keys and 4-byte values) and for
// TPC-C char columns. No heap allocation; trivially copyable.
//
// The bytes past size() are always zero: every constructor zero-fills them
// and nothing writes into a string in place. The wire depends on this:
// WireWriter::Str copies the whole N-byte store, padding included
// (Wire.InlineStringPaddingStaysZero).
#ifndef PARTDB_COMMON_INLINE_STRING_H_
#define PARTDB_COMMON_INLINE_STRING_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/logging.h"
#include "common/rng.h"

namespace partdb {

template <size_t N>
class InlineString {
 public:
  InlineString() : len_(0) { std::memset(data_, 0, N); }

  InlineString(std::string_view s) : len_(0) {  // NOLINT: implicit by design
    PARTDB_DCHECK(s.size() <= N);
    std::memset(data_, 0, N);
    len_ = static_cast<uint8_t>(std::min(s.size(), N));
    std::memcpy(data_, s.data(), len_);
  }

  static constexpr size_t capacity() { return N; }
  size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  const char* data() const { return data_; }

  std::string_view view() const { return std::string_view(data_, len_); }
  std::string str() const { return std::string(data_, len_); }

  bool operator==(const InlineString& o) const {
    return len_ == o.len_ && std::memcmp(data_, o.data_, len_) == 0;
  }
  bool operator!=(const InlineString& o) const { return !(*this == o); }
  bool operator<(const InlineString& o) const { return view() < o.view(); }

  /// 64-bit hash of the contents (splitmix over packed bytes).
  uint64_t Hash() const {
    uint64_t h = 0xcbf29ce484222325ull ^ len_;
    for (size_t i = 0; i < len_; ++i) {
      h ^= static_cast<unsigned char>(data_[i]);
      h *= 0x100000001b3ull;
    }
    return Mix64(h);
  }

 private:
  char data_[N];
  uint8_t len_;
};

}  // namespace partdb

#endif  // PARTDB_COMMON_INLINE_STRING_H_
