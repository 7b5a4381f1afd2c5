#include "common/histogram.h"

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/logging.h"

namespace partdb {

namespace {

/// Where each bucket starts, computed once from the bucket formula itself,
/// so a lookup agrees with the formula on every value: start[b] is the
/// smallest value the formula puts in bucket b or above (the formula never
/// decreases), or "none" for buckets no int64 reaches. A value of bit length
/// L starts its search at by_bits[L], the bucket of 2^(L-1); a doubling
/// spans about 7.3 buckets, so the search steps at most 8 times.
struct BucketTable {
  static constexpr int kBuckets = Histogram::num_buckets();
  static constexpr uint64_t kNone = std::numeric_limits<uint64_t>::max();

  static int Formula(int64_t value) {
    if (value <= 0) return 0;
    const int idx = static_cast<int>(std::log(static_cast<double>(value)) / std::log(1.1));
    return idx < 0 ? 0 : (idx >= kBuckets ? kBuckets - 1 : idx);
  }

  BucketTable() {
    constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
    start[0] = 0;
    int64_t prev = 1;
    for (int b = 1; b < kBuckets; ++b) {
      if (Formula(kMax) < b) {
        start[b] = kNone;
        continue;
      }
      // The smallest value at or above the previous start whose bucket
      // reaches b; start[b] <= 2 * start[b-1] + 2, since doubling a value
      // moves it up at least 7 buckets.
      int64_t lo = prev;
      int64_t hi = prev > (kMax - 2) / 2 ? kMax : 2 * prev + 2;
      while (lo < hi) {
        const int64_t mid = lo + (hi - lo) / 2;
        if (Formula(mid) >= b) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      PARTDB_CHECK(Formula(lo) >= b);
      start[b] = static_cast<uint64_t>(lo);
      prev = lo;
    }
    for (int bits = 1; bits < 64; ++bits) by_bits[bits] = Formula(int64_t{1} << (bits - 1));
  }

  int Lookup(int64_t value) const {
    if (value <= 0) return 0;
    const auto v = static_cast<uint64_t>(value);
    int b = by_bits[std::bit_width(v)];
    while (b + 1 < kBuckets && start[b + 1] <= v) ++b;
    return b;
  }

  uint64_t start[kBuckets];
  int by_bits[64] = {};
};

const BucketTable& Buckets() {
  static const BucketTable table;
  return table;
}

}  // namespace

Histogram::Histogram() : buckets_(kNumBuckets, 0) { Clear(); }

void Histogram::Clear() {
  for (auto& b : buckets_) b = 0;
  count_ = 0;
  min_ = 0;
  max_ = 0;
  sum_ = 0;
}

int Histogram::BucketFor(int64_t value) { return Buckets().Lookup(value); }

int64_t Histogram::BucketLimit(int bucket) {
  return static_cast<int64_t>(std::pow(1.1, bucket + 1));
}

void Histogram::Add(int64_t value) {
  const int b = BucketFor(value);
  buckets_[b]++;
  if (count_ == 0 || value < min_) min_ = value;
  if (value > max_) max_ = value;
  sum_ += static_cast<double>(value);
  count_++;
}

void Histogram::Merge(const Histogram& other) {
  for (int i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
  if (other.count_ > 0) {
    if (count_ == 0 || other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

double Histogram::Mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  PARTDB_CHECK(p >= 0.0 && p <= 100.0);
  const double target = p / 100.0 * static_cast<double>(count_);
  uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    const uint64_t next = seen + buckets_[i];
    if (static_cast<double>(next) >= target) {
      const int64_t lo = i == 0 ? 0 : BucketLimit(i - 1);
      const int64_t hi = BucketLimit(i);
      const double frac = buckets_[i] == 0 ? 0.0
                                           : (target - static_cast<double>(seen)) /
                                                 static_cast<double>(buckets_[i]);
      double v = static_cast<double>(lo) + frac * static_cast<double>(hi - lo);
      if (v < static_cast<double>(min_)) v = static_cast<double>(min_);
      if (v > static_cast<double>(max_)) v = static_cast<double>(max_);
      return v;
    }
    seen = next;
  }
  return static_cast<double>(max_);
}

std::vector<std::pair<uint32_t, uint64_t>> Histogram::NonZeroBuckets() const {
  std::vector<std::pair<uint32_t, uint64_t>> out;
  for (int i = 0; i < kNumBuckets; ++i) {
    if (buckets_[i] != 0) out.emplace_back(static_cast<uint32_t>(i), buckets_[i]);
  }
  return out;
}

Histogram Histogram::FromRaw(uint64_t count, int64_t min, int64_t max, double sum,
                             const std::vector<std::pair<uint32_t, uint64_t>>& nonzero) {
  Histogram h;
  uint64_t total = 0;
  for (const auto& [idx, n] : nonzero) {
    PARTDB_CHECK(idx < static_cast<uint32_t>(kNumBuckets));
    h.buckets_[idx] = n;
    total += n;
  }
  PARTDB_CHECK(total == count);
  h.count_ = count;
  h.min_ = min;
  h.max_ = max;
  h.sum_ = sum;
  return h;
}

std::string Histogram::Summary(double scale) const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "count=%llu mean=%.1f p50=%.1f p95=%.1f p99=%.1f max=%.1f",
                static_cast<unsigned long long>(count_), Mean() * scale,
                Percentile(50) * scale, Percentile(95) * scale, Percentile(99) * scale,
                static_cast<double>(max_) * scale);
  return buf;
}

}  // namespace partdb
