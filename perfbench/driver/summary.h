// Summary math of the benchmark driver: which percentile a sample can
// support, the self time of a wall-clock span, and the operation-failure
// tally. Pure functions and plain structs, so the unit tests in
// perfbench/tests/ exercise exactly what the driver reports.

#ifndef DSPS_PERFBENCH_SUMMARY_H_
#define DSPS_PERFBENCH_SUMMARY_H_

#include <cstdint>
#include <string>
#include <vector>

namespace dsps::perfbench {

/// A timing is reported at the highest percentile that still has this
/// many samples strictly beyond it.
inline constexpr int64_t kMinSamplesBeyond = 10;

/// Number of samples strictly above the nearest-rank q-quantile of `n`
/// samples (rank ceil(q*n)).
int64_t SamplesBeyond(int64_t n, double q);

/// The largest quantile on the ladder {0.999, 0.99, 0.95, 0.9, 0.75, 0.5}
/// that is <= `wanted` and leaves at least kMinSamplesBeyond samples of
/// `n` beyond it; 0.5 when none does (the median is always reportable).
double SupportedQuantile(int64_t n, double wanted);

/// Nearest-rank q-quantile of `samples` (sorted in place); 0 when empty.
double NearestRank(std::vector<double>* samples, double q);

/// One wall-clock span the driver records around a call into the System.
/// Times are seconds since the driver process started.
struct Span {
  std::string name;
  /// The phase the call ran in: setup / install / run / collect. Phase
  /// spans themselves carry their own name here.
  std::string phase;
  double start = 0.0;
  double end = 0.0;
  double duration() const { return end - start; }
};

/// Self time of `parent`: its duration minus the part of its interval that
/// the union of `children` covers (children may overlap each other or
/// stick out of the parent; only the covered part inside counts once).
double SelfTime(const Span& parent, const std::vector<Span>& children);

/// Operation outcome tally behind the op-failure ratio. An attempt is every
/// submitted query and every RemoveQuery / RepartitionQueries / FailEntity
/// call. A failure is a refused or failed submission, a non-OK status from
/// the other calls, or a query still queued or unplaced at the end.
struct OpTally {
  int64_t attempted = 0;
  int64_t failed = 0;

  /// A SubmitQueries call over `submitted` queries with its tally.
  void Submit(int64_t submitted, int64_t rejected, int64_t errored) {
    attempted += submitted;
    failed += rejected + errored;
  }
  /// One RemoveQuery / RepartitionQueries / FailEntity call.
  void Call(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// Queries left queued for admission or unplaced when the run ends.
  void Leftover(int64_t queued, int64_t unplaced) {
    failed += queued + unplaced;
  }
  double ratio() const {
    return attempted > 0 ? static_cast<double>(failed) /
                               static_cast<double>(attempted)
                         : 0.0;
  }
};

}  // namespace dsps::perfbench

#endif  // DSPS_PERFBENCH_SUMMARY_H_
