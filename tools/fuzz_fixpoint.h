// The fixpoint check the fuzz harnesses run on every body a decoder accepts:
// the encoding of what the decoder produced must decode again and re-encode
// to the same bytes, Encode(Decode(Encode(Decode(x)))) == Encode(Decode(x)).
// The first round may normalize (unknown flag bits, a non-canonical bool
// byte); after it, a decoder that drops, reorders or misreads a field its
// encoder writes breaks the fixpoint and fails a PARTDB_CHECK.
#ifndef PARTDB_TOOLS_FUZZ_FIXPOINT_H_
#define PARTDB_TOOLS_FUZZ_FIXPOINT_H_

#include <string>
#include <string_view>

#include "common/logging.h"

namespace partdb {

/// Runs `decode(bytes, &body)`; when it accepts, checks the fixpoint through
/// `encode(body) -> std::string`.
template <typename Body, typename Decode, typename Encode>
void DecodeAndCheckFixpoint(std::string_view bytes, Decode&& decode, Encode&& encode) {
  Body first;
  if (!decode(bytes, &first)) return;
  const std::string once = encode(first);
  Body second;
  PARTDB_CHECK(decode(std::string_view(once), &second));
  PARTDB_CHECK(encode(second) == once);
}

}  // namespace partdb

#endif  // PARTDB_TOOLS_FUZZ_FIXPOINT_H_
