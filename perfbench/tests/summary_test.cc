// Unit tests of the benchmark driver's summary math: the percentile
// choice, span self time, and op-failure counting. Plain checks (no test
// framework) so the benchmark package needs nothing beyond a compiler.

#include <cmath>
#include <cstdio>
#include <vector>

#include "summary.h"

namespace {

namespace pb = dsps::perfbench;

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "summary_test.cc:%d: FAILED: %s\n", line, what);
    ++failures;
  }
}

#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void PercentileChoiceNeedsTenSamplesBeyond() {
  EXPECT(pb::SamplesBeyond(1000, 0.99) == 10);
  EXPECT(pb::SamplesBeyond(999, 0.99) == 9);
  EXPECT(pb::SamplesBeyond(0, 0.99) == 0);
  EXPECT(pb::SamplesBeyond(1, 0.5) == 0);
  // p99 needs 1000 samples; one fewer falls back to p95.
  EXPECT(pb::SupportedQuantile(1000, 0.99) == 0.99);
  EXPECT(pb::SupportedQuantile(999, 0.99) == 0.95);
  EXPECT(pb::SupportedQuantile(200, 0.99) == 0.95);
  EXPECT(pb::SupportedQuantile(199, 0.99) == 0.9);
  EXPECT(pb::SupportedQuantile(10000, 0.999) == 0.999);
  // Never above what was asked for.
  EXPECT(pb::SupportedQuantile(1000000, 0.95) == 0.95);
  EXPECT(pb::SupportedQuantile(1000000, 0.5) == 0.5);
  // Too few samples for any tail: the median.
  EXPECT(pb::SupportedQuantile(20, 0.99) == 0.5);
  EXPECT(pb::SupportedQuantile(0, 0.99) == 0.5);
}

void NearestRankPicksTheRankedSample() {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);
  EXPECT(pb::NearestRank(&v, 0.99) == 990.0);
  EXPECT(pb::NearestRank(&v, 0.5) == 500.0);
  std::vector<double> one = {7.0};
  EXPECT(pb::NearestRank(&one, 0.99) == 7.0);
  std::vector<double> none;
  EXPECT(pb::NearestRank(&none, 0.5) == 0.0);
}

void SelfTimeSubtractsTheUnionOfChildren() {
  const pb::Span parent{"run", "run", 0.0, 10.0};
  EXPECT(Near(pb::SelfTime(parent, {}), 10.0));
  // Disjoint children.
  EXPECT(Near(pb::SelfTime(parent, {{"a", "run", 1.0, 2.0},
                                    {"b", "run", 4.0, 7.0}}),
              6.0));
  // Overlapping children count once; order does not matter.
  EXPECT(Near(pb::SelfTime(parent, {{"b", "run", 3.0, 6.0},
                                    {"a", "run", 1.0, 4.0},
                                    {"c", "run", 2.0, 5.0}}),
              5.0));
  // A child nested inside another adds nothing.
  EXPECT(Near(pb::SelfTime(parent, {{"a", "run", 1.0, 9.0},
                                    {"b", "run", 2.0, 3.0}}),
              2.0));
  // Only the part inside the parent counts.
  EXPECT(Near(pb::SelfTime(parent, {{"a", "run", -5.0, 1.0},
                                    {"b", "run", 9.5, 20.0},
                                    {"c", "run", 11.0, 12.0}}),
              8.5));
  // Fully covered parent.
  EXPECT(Near(pb::SelfTime(parent, {{"a", "run", 0.0, 10.0}}), 0.0));
}

void OpTallyCountsEveryFailureKind() {
  pb::OpTally ops;
  EXPECT(ops.ratio() == 0.0);
  ops.Submit(100, 3, 1);  // 3 refused by admission, 1 hard error
  ops.Call(true);         // RemoveQuery OK
  ops.Call(false);        // RepartitionQueries not OK
  ops.Leftover(2, 4);     // still queued / unplaced at the end
  EXPECT(ops.attempted == 102);
  EXPECT(ops.failed == 3 + 1 + 1 + 2 + 4);
  EXPECT(Near(ops.ratio(), 11.0 / 102.0));
  pb::OpTally clean;
  clean.Submit(50, 0, 0);
  clean.Call(true);
  clean.Leftover(0, 0);
  EXPECT(clean.attempted == 51 && clean.failed == 0);
  EXPECT(clean.ratio() == 0.0);
}

}  // namespace

int main() {
  PercentileChoiceNeedsTenSamplesBeyond();
  NearestRankPicksTheRankedSample();
  SelfTimeSubtractsTheUnionOfChildren();
  OpTallyCountsEveryFailureKind();
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench summary tests passed\n");
  return 0;
}
