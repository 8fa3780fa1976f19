#include "summary.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace dsps::perfbench {

int64_t SamplesBeyond(int64_t n, double q) {
  if (n <= 0) return 0;
  // The epsilon keeps exact products (0.99 * 1000) from rounding up a rank.
  const auto rank = static_cast<int64_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return n - std::clamp<int64_t>(rank, 1, n);
}

double SupportedQuantile(int64_t n, double wanted) {
  for (double q : {0.999, 0.99, 0.95, 0.9, 0.75}) {
    if (q <= wanted && SamplesBeyond(n, q) >= kMinSamplesBeyond) return q;
  }
  return 0.5;
}

double NearestRank(std::vector<double>* samples, double q) {
  if (samples->empty()) return 0.0;
  std::sort(samples->begin(), samples->end());
  const int64_t n = static_cast<int64_t>(samples->size());
  return (*samples)[n - 1 - SamplesBeyond(n, q)];
}

double SelfTime(const Span& parent, const std::vector<Span>& children) {
  std::vector<std::pair<double, double>> parts;
  parts.reserve(children.size());
  for (const Span& c : children) {
    const double lo = std::max(c.start, parent.start);
    const double hi = std::min(c.end, parent.end);
    if (hi > lo) parts.emplace_back(lo, hi);
  }
  std::sort(parts.begin(), parts.end());
  double covered = 0.0;
  double reach = parent.start;
  for (const auto& [lo, hi] : parts) {
    const double from = std::max(lo, reach);
    if (hi > from) {
      covered += hi - from;
      reach = hi;
    }
  }
  return parent.duration() - covered;
}

}  // namespace dsps::perfbench
