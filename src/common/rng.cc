#include "common/rng.h"

namespace partdb {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t Mix64(uint64_t x) {
  uint64_t s = x;
  return SplitMix64(&s);
}

void Rng::Seed(uint64_t seed) {
  uint64_t s = seed;
  for (auto& word : s_) word = SplitMix64(&s);
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

}  // namespace partdb
