#ifndef DSPS_TELEMETRY_SKETCH_H_
#define DSPS_TELEMETRY_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>

namespace dsps::telemetry {

/// Mergeable quantile sketch with bounded relative error (DDSketch-style
/// log-gamma bucketing).
///
/// Every observation is quantized to a geometric bucket whose estimate is
/// at most `relative_accuracy` away from the true value, so any quantile
/// query answers within that relative error of the exact sample quantile
/// regardless of stream length. Memory is O(buckets): with the default
/// 1% accuracy, values spanning six orders of magnitude fit in ~700
/// buckets (~11 KB), versus 8 bytes *per sample* for common::Histogram.
///
/// Sketch is the one type for streamed distributions: per-result
/// latency and PR, and every MetricsRegistry histogram. Keep
/// common::Histogram for small sample sets where exact order statistics
/// matter (detection latencies, test oracles).
///
/// Merging adds bucket counts, so merge(a, b) is exact: the merged sketch
/// is identical to one that observed both streams. Merge order only
/// matters once `max_buckets` forces low-bucket collapsing (high
/// quantiles keep their error bound even then).
class Sketch {
 public:
  struct Config {
    /// Bound on the relative error of quantile estimates (alpha).
    double relative_accuracy = 0.01;
    /// Bucket budget per sign. When exceeded, the lowest-magnitude
    /// buckets collapse together: high quantiles stay accurate, the far
    /// low tail degrades. 1024 buckets cover ~9 decades at alpha=0.01.
    size_t max_buckets = 1024;
  };

  Sketch() : Sketch(Config{}) {}
  explicit Sketch(const Config& config);

  /// Adds `n` observations of value `x` (NaN is counted but ignored for
  /// quantiles; callers feed finite data on hot paths).
  void Add(double x, int64_t n = 1);

  /// Folds another sketch in. Both sketches must share the same
  /// relative_accuracy (checked); bucket counts add exactly.
  void Merge(const Sketch& other);

  int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  /// Exact extremes (tracked outside the buckets).
  double min() const;
  double max() const;

  /// The q-quantile (q in [0,1]) by nearest rank over the buckets; the
  /// returned value is within relative_accuracy of the exact sample at
  /// that rank. 0 when empty.
  double Percentile(double q) const;
  double p50() const { return Percentile(0.50); }
  double p95() const { return Percentile(0.95); }
  double p99() const { return Percentile(0.99); }

  size_t num_buckets() const { return pos_.size() + neg_.size(); }
  /// Approximate heap footprint of the bucket maps.
  size_t MemoryBytes() const;
  /// True once the bucket budget forced low-bucket collapsing.
  bool collapsed() const { return collapsed_; }

  const Config& config() const { return config_; }

  void Clear();

 private:
  /// |x| below this is counted in the zero bucket (sub-picosecond for
  /// second-valued latencies — indistinguishable from zero).
  static constexpr double kMinIndexable = 1e-12;

  int KeyFor(double magnitude) const;
  double ValueFor(int key) const;
  void Collapse(std::map<int, int64_t>& buckets);

  Config config_;
  double gamma_ = 0.0;
  double inv_log_gamma_ = 0.0;
  /// Bucket key -> count, keyed on the magnitude's log-gamma index.
  std::map<int, int64_t> pos_;
  std::map<int, int64_t> neg_;
  int64_t zero_count_ = 0;
  int64_t count_ = 0;
  double sum_ = 0.0;
  /// Exact extremes over finite observations; +/-inf sentinels until the
  /// first finite Add so NaN-only streams never poison them.
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  bool collapsed_ = false;
};

}  // namespace dsps::telemetry

#endif  // DSPS_TELEMETRY_SKETCH_H_
