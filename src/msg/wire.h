// Wire primitives for the payload/frame encoding: a little-endian
// fixed-width writer that can either append to a buffer or just count bytes
// (Payload::ByteSize derives the sim cost model's network sizes from the
// same code path that produces real frames), and a bounds-checked reader
// that never reads past its span — a truncated or corrupt frame flips ok()
// instead of invoking undefined behavior.
//
// A layout is written once, as a field list: a function template over the
// stream type whose body names each field in wire order. Run with a
// WireWriter it encodes (or counts); run with a WireReader it decodes into
// the same fields, so the two directions cannot disagree on the order. Both
// streams spell the same calls:
//   Field(x)             one fixed-width value or inline string
//   Reserved(n)          n zero bytes kept for later use
//   Enum(e, max) / Flags(bits...)
//                        a u8 enum (the reader refuses one past `max`) / a
//                        u32 word whose bit i is the i-th bool
//   Count(n, min)        a count of elements of at least `min` bytes each
//                        (the reader refuses one the bytes left cannot hold)
//   Seq32/Seq64(c, min)  a container's size as a Count (Seq32 also takes
//                        a cap); the reader resizes the container, and the
//                        field list then walks its elements
//   Bytes16/Bytes64(s)   a length-prefixed byte string (Bytes64 also takes
//                        a cap)
//   Require(cond)        a cross-field invariant the reader checks (the
//                        writer holds it by construction)
// Every count is bounded before the reader sizes anything from it.
#ifndef PARTDB_MSG_WIRE_H_
#define PARTDB_MSG_WIRE_H_

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/inline_string.h"

namespace partdb {

/// The object parameter of a field list: `const T` when a WireWriter runs
/// the list, `T` when a WireReader does.
template <typename Self, typename T>
concept FieldsOf = std::is_same_v<std::remove_const_t<Self>, T>;

/// Appends fixed-width little-endian values to `out`, or — when constructed
/// without a buffer — only counts the bytes that would be written. The two
/// modes share every call site, so a payload's ByteSize() is exactly the
/// number of bytes its SerializeTo() puts on the wire.
class WireWriter {
 public:
  WireWriter() = default;                              // counting mode
  explicit WireWriter(std::string* out) : out_(out) {}  // append mode

  void U8(uint8_t v) { Raw(&v, 1); }
  void U16(uint16_t v) { PutLe(v); }
  void U32(uint32_t v) { PutLe(v); }
  void U64(uint64_t v) { PutLe(v); }
  void I32(int32_t v) { PutLe(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { PutLe(static_cast<uint64_t>(v)); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, 8);
    PutLe(bits);
  }

  void Raw(const void* p, size_t n) {
    if (out_ != nullptr) out_->append(static_cast<const char*>(p), n);
    n_ += n;
  }

  /// Zero padding/reserved bytes (room a layout keeps for later fields).
  void Pad(size_t n) {
    if (out_ != nullptr) out_->append(n, '\0');
    n_ += n;
  }

  /// Fixed-width inline string: 1 length byte + the full N-byte backing store,
  /// copied whole. Bytes past the length are zero by construction
  /// (InlineString), so this round-trips bit-identically and keeps every
  /// instance the same wire size; a constant-size copy also keeps the
  /// compiler from lowering it to a `rep movs` whose start-up cost dominates.
  template <size_t N>
  void Str(const InlineString<N>& s) {
    U8(static_cast<uint8_t>(s.size()));
    Raw(s.data(), N);
  }

  // Field-list spellings (see the file comment); a bool is one byte.
  void Field(uint8_t v) { U8(v); }
  void Field(int32_t v) { I32(v); }
  void Field(uint32_t v) { U32(v); }
  void Field(int64_t v) { I64(v); }
  void Field(uint64_t v) { U64(v); }
  void Field(double v) { F64(v); }
  void Field(bool v) { U8(v ? 1 : 0); }
  template <size_t N>
  void Field(const InlineString<N>& s) {
    Str(s);
  }
  void Reserved(size_t n) { Pad(n); }
  template <typename E>
  void Enum(E e, E /*max*/) {
    static_assert(sizeof(E) == 1);
    U8(static_cast<uint8_t>(e));
  }
  template <typename... B>
  void Flags(const B&... bits) {
    static_assert((std::is_same_v<B, bool> && ...));
    uint32_t word = 0;
    uint32_t bit = 1;
    ((word |= bits ? bit : 0, bit <<= 1), ...);
    U32(word);
  }
  template <typename N>
  void Count(N n, size_t /*min_elem_bytes*/) {
    PutLe(n);
  }
  template <typename C>
  void Seq32(const C& c, size_t /*min_elem_bytes*/, uint64_t /*max_count*/ = kNoLimit) {
    U32(static_cast<uint32_t>(c.size()));
  }
  template <typename C>
  void Seq64(const C& c, size_t /*min_elem_bytes*/) {
    U64(c.size());
  }
  void Bytes16(const std::string& s) { Bytes<uint16_t>(s); }
  void Bytes64(const std::string& s, uint64_t /*max_len*/) { Bytes<uint64_t>(s); }
  void Require(bool /*holds*/) {}

  static constexpr uint64_t kNoLimit = std::numeric_limits<uint64_t>::max();

  size_t bytes_written() const { return n_; }

 private:
  template <typename N>
  void Bytes(const std::string& s) {
    PutLe(static_cast<N>(s.size()));
    Raw(s.data(), s.size());
  }

  template <typename T>
  void PutLe(T v) {
    char buf[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i) {
      buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    }
    Raw(buf, sizeof(T));
  }

  std::string* out_ = nullptr;
  size_t n_ = 0;
};

/// Bounds-checked reader over one encoded span. An attempted over-read (or a
/// malformed length) clears ok(); every subsequent read returns zero values,
/// so decoders can run to completion and check ok() once at the end.
class WireReader {
 public:
  WireReader(const void* data, size_t size)
      : data_(static_cast<const char*>(data)), size_(size) {}
  explicit WireReader(std::string_view s) : WireReader(s.data(), s.size()) {}

  uint8_t U8() {
    uint8_t v = 0;
    Raw(&v, 1);
    return v;
  }
  uint16_t U16() { return GetLe<uint16_t>(); }
  uint32_t U32() { return GetLe<uint32_t>(); }
  uint64_t U64() { return GetLe<uint64_t>(); }
  int32_t I32() { return static_cast<int32_t>(GetLe<uint32_t>()); }
  int64_t I64() { return static_cast<int64_t>(GetLe<uint64_t>()); }
  double F64() {
    const uint64_t bits = GetLe<uint64_t>();
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }

  void Raw(void* p, size_t n) {
    if (!ok_ || size_ - pos_ < n) {
      ok_ = false;
      std::memset(p, 0, n);
      return;
    }
    std::memcpy(p, data_ + pos_, n);
    pos_ += n;
  }

  void Skip(size_t n) {
    if (!ok_ || size_ - pos_ < n) {
      ok_ = false;
      return;
    }
    pos_ += n;
  }

  template <size_t N>
  InlineString<N> Str() {
    const uint8_t len = U8();
    char buf[N] = {};
    Raw(buf, N);
    if (len > N) {
      ok_ = false;
      return InlineString<N>();
    }
    return InlineString<N>(std::string_view(buf, len));
  }

  // Field-list spellings, matching WireWriter's.
  void Field(uint8_t& v) { v = U8(); }
  void Field(int32_t& v) { v = I32(); }
  void Field(uint32_t& v) { v = U32(); }
  void Field(int64_t& v) { v = I64(); }
  void Field(uint64_t& v) { v = U64(); }
  void Field(double& v) { v = F64(); }
  void Field(bool& v) { v = U8() != 0; }
  template <size_t N>
  void Field(InlineString<N>& s) {
    s = Str<N>();
  }
  void Reserved(size_t n) { Skip(n); }
  template <typename E>
  void Enum(E& e, E max) {
    static_assert(sizeof(E) == 1);
    const uint8_t v = U8();
    if (v > static_cast<uint8_t>(max)) return MarkCorrupt();
    e = static_cast<E>(v);
  }
  /// Unknown bits are ignored: a later writer may define them.
  template <typename... B>
  void Flags(B&... bits) {
    static_assert((std::is_same_v<B, bool> && ...));
    const uint32_t word = U32();
    uint32_t bit = 1;
    ((bits = (word & bit) != 0, bit <<= 1), ...);
  }
  template <typename N>
  void Count(N& n, size_t min_elem_bytes) {
    n = GetLe<N>();
    if (n > remaining() / min_elem_bytes) MarkCorrupt();
  }
  template <typename C>
  void Seq32(C& c, size_t min_elem_bytes, uint64_t max_count = WireWriter::kNoLimit) {
    Seq<uint32_t>(c, min_elem_bytes, max_count);
  }
  template <typename C>
  void Seq64(C& c, size_t min_elem_bytes) {
    Seq<uint64_t>(c, min_elem_bytes, WireWriter::kNoLimit);
  }
  void Bytes16(std::string& s) { Bytes<uint16_t>(s, WireWriter::kNoLimit); }
  void Bytes64(std::string& s, uint64_t max_len) { Bytes<uint64_t>(s, max_len); }
  void Require(bool holds) {
    if (!holds) MarkCorrupt();
  }

  /// Marks the span malformed (decoders that find an impossible value).
  void MarkCorrupt() { ok_ = false; }

  bool ok() const { return ok_; }
  size_t remaining() const { return ok_ ? size_ - pos_ : 0; }
  /// True when every byte was consumed and no read failed — strict decoders
  /// require this so trailing garbage is rejected, not silently ignored.
  bool AtEnd() const { return ok_ && pos_ == size_; }

 private:
  template <typename N, typename C>
  void Seq(C& c, size_t min_elem_bytes, uint64_t max_count) {
    N n = 0;
    Count(n, min_elem_bytes);
    if (n > max_count) MarkCorrupt();
    c.resize(ok_ ? n : 0);
  }

  template <typename N>
  void Bytes(std::string& s, uint64_t max_len) {
    const N len = GetLe<N>();
    if (len > max_len || len > remaining()) {
      MarkCorrupt();
      s.clear();
      return;
    }
    s.resize(len);
    Raw(s.data(), len);
  }

  template <typename T>
  T GetLe() {
    char buf[sizeof(T)] = {};
    Raw(buf, sizeof(T));
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<unsigned char>(buf[i])) << (8 * i);
    }
    return v;
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace partdb

#endif  // PARTDB_MSG_WIRE_H_
