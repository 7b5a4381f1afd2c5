// Log-bucketed histogram for latency measurements.
#ifndef PARTDB_COMMON_HISTOGRAM_H_
#define PARTDB_COMMON_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace partdb {

/// Histogram over non-negative int64 samples (typically nanoseconds). Buckets
/// grow geometrically (~10% per bucket) so percentile error is bounded.
class Histogram {
 public:
  Histogram();

  void Add(int64_t value);
  void Merge(const Histogram& other);
  void Clear();

  uint64_t count() const { return count_; }
  int64_t min() const { return count_ == 0 ? 0 : min_; }
  int64_t max() const { return max_; }
  double Mean() const;
  /// Value at percentile p in [0, 100]. Linear interpolation within a bucket.
  double Percentile(double p) const;

  /// One-line summary: count/mean/p50/p95/p99/max (values scaled by `scale`).
  std::string Summary(double scale = 1.0) const;

  // Raw-state access for the wire codec (net tier ships measurement-window
  // metrics): the non-zero buckets as (index, count) pairs — ascending
  // index — plus the running aggregates, and the inverse constructor
  // (which CHECKs bucket indices; decoders validate before calling it).
  static constexpr int num_buckets() { return kNumBuckets; }
  std::vector<std::pair<uint32_t, uint64_t>> NonZeroBuckets() const;
  double raw_sum() const { return sum_; }
  int64_t raw_min() const { return min_; }
  static Histogram FromRaw(uint64_t count, int64_t min, int64_t max, double sum,
                           const std::vector<std::pair<uint32_t, uint64_t>>& nonzero);

  /// The bucket `value` counts in: floor(log(value) / log(1.1)), 0 for
  /// values below 1. A table built once from that formula answers it, so
  /// Add calls no log.
  static int BucketFor(int64_t value);

 private:
  static constexpr int kNumBuckets = 512;
  static int64_t BucketLimit(int bucket);

  std::vector<uint64_t> buckets_;
  uint64_t count_;
  int64_t min_;
  int64_t max_;
  double sum_;
};

}  // namespace partdb

#endif  // PARTDB_COMMON_HISTOGRAM_H_
