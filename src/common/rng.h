// Deterministic pseudo-random number generation (xoshiro256** seeded via
// splitmix64). All randomness in the system flows through explicitly seeded
// Rng instances so that simulations are reproducible bit-for-bit.
#ifndef PARTDB_COMMON_RNG_H_
#define PARTDB_COMMON_RNG_H_

#include <cstdint>

#include "common/logging.h"

namespace partdb {

/// Advances a splitmix64 state and returns the next output. Used for seeding
/// and as a cheap stateless hash/mixer.
uint64_t SplitMix64(uint64_t* state);

/// Mixes a single value (stateless). Good avalanche; used for hashing ids.
uint64_t Mix64(uint64_t x);

/// Seed of ingress client stream `index` of a run seeded with `seed`. Session
/// slot `index` is seeded with it, and closed-loop client c draws from slot
/// c, so a run's per-client streams depend only on the seed (the sim figure
/// goldens pin them).
inline uint64_t ClientStreamSeed(uint64_t seed, int index) {
  return Mix64(seed ^ (0x9e37u + static_cast<uint64_t>(index) * 0x1357ull));
}

/// xoshiro256** generator. Not thread-safe; one instance per simulated entity.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull) { Seed(seed); }

  void Seed(uint64_t seed);

  // Next, Uniform and UniformRange are inline: the TPC-C loader draws
  // every character of its tables through Uniform.

  /// Uniform 64-bit value.
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, n). n must be > 0.
  uint64_t Uniform(uint64_t n) {
    PARTDB_DCHECK(n > 0);
    // Rejection sampling to avoid modulo bias.
    const uint64_t threshold = -n % n;
    for (;;) {
      const uint64_t r = Next();
      if (r >= threshold) return r % n;
    }
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformRange(int64_t lo, int64_t hi) {
    PARTDB_DCHECK(lo <= hi);
    return lo + static_cast<int64_t>(Uniform(static_cast<uint64_t>(hi - lo + 1)));
  }

  /// Uniform double in [0, 1).
  double NextDouble();

  /// True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t s_[4];
};

}  // namespace partdb

#endif  // PARTDB_COMMON_RNG_H_
