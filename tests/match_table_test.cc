#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "interest/match_table.h"

namespace dsps::interest {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

MatchTable Compile(const std::vector<std::vector<Box>>& owners) {
  return MatchTable::Build(
      owners.size(),
      [&](size_t o) -> const std::vector<Box>& { return owners[o]; });
}

/// The oracle: each owner whose box list has a box containing `point`, in
/// owner order.
std::vector<uint32_t> Scan(const std::vector<std::vector<Box>>& owners,
                           const double* point) {
  std::vector<uint32_t> out;
  for (size_t o = 0; o < owners.size(); ++o) {
    for (const Box& b : owners[o]) {
      if (BoxContains(b, point)) {
        out.push_back(static_cast<uint32_t>(o));
        break;
      }
    }
  }
  return out;
}

/// A random 2-D box over [0, 100]^2: mostly bounded, sometimes empty,
/// unbounded (Interval::All()) or reaching +-1e300 in the leading
/// dimension.
Box RandomBox(common::Rng* rng) {
  const double r = rng->Uniform(0, 1);
  if (r < 0.05) return Box{{10, 5}, {0, 100}};  // empty
  if (r < 0.10) return Box{Interval::All(), {0, 100}};
  const double x = rng->Uniform(0, 100);
  Interval lead{x, x + rng->Uniform(0, 30)};
  if (r < 0.15) lead.lo = -1e300;
  if (r < 0.20 && r >= 0.15) lead.hi = 1e300;
  const double y = rng->Uniform(0, 100);
  return Box{lead, {y, y + rng->Uniform(0, 50)}};
}

std::vector<double> RandomPoint(common::Rng* rng) {
  const double r = rng->Uniform(0, 1);
  std::vector<double> p{rng->Uniform(-10, 130), rng->Uniform(-10, 160)};
  if (r < 0.03) p[0] = kNaN;
  if (r < 0.06 && r >= 0.03) p[0] = kInf;
  if (r < 0.09 && r >= 0.06) p[0] = -kInf;
  if (r < 0.12 && r >= 0.09) p[1] = kNaN;
  return p;
}

TEST(MatchTableTest, EmptyTableMatchesNothing) {
  MatchTable table;
  const double p[2] = {1, 2};
  std::vector<uint32_t> out;
  table.Match(p, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(table.AnyContains(p));
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.gridded());
}

TEST(MatchTableTest, SkipsEmptyBoxesAndEmitsEachOwnerOnce) {
  const std::vector<std::vector<Box>> owners{
      {Box{{0, 10}, {0, 10}}, Box{{5, 20}, {0, 10}}},  // two hits at x=7
      {Box{{3, 1}, {0, 10}}},                          // empty only
      {},
      {Box{{6, 8}, {0, 10}}}};
  MatchTable table = Compile(owners);
  EXPECT_EQ(table.size(), 3u);
  const double p[2] = {7, 5};
  std::vector<uint32_t> out;
  table.Match(p, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{0, 3}));
  EXPECT_TRUE(table.AnyContains(p));
}

TEST(MatchTableTest, GridOnlyFromThreshold) {
  std::vector<std::vector<Box>> owners;
  for (size_t i = 0; i + 1 < MatchTable::kGridMinBoxes; ++i) {
    owners.push_back({Box{{static_cast<double>(i), i + 1.0}, {0, 1}}});
  }
  EXPECT_FALSE(Compile(owners).gridded());
  owners.push_back({Box{{50, 51}, {0, 1}}});
  MatchTable table = Compile(owners);
  EXPECT_TRUE(table.gridded());
  IndexStats stats;
  table.AddStatsTo(&stats);
  EXPECT_EQ(stats.indexes, 1);
  EXPECT_EQ(stats.grid_indexes, 1);
  EXPECT_EQ(stats.boxes, static_cast<int64_t>(MatchTable::kGridMinBoxes));
  EXPECT_GT(stats.mem_bytes, 0);
}

// First-hit-per-owner order against a linear scan, below and above the
// grid threshold, with empty and unbounded boxes and NaN/inf points.
TEST(MatchTableTest, MatchesLinearScanBelowAndAboveGridThreshold) {
  common::Rng rng(2718);
  for (int trial = 0; trial < 60; ++trial) {
    const size_t n_owners = 1 + rng.NextUint64(trial < 30 ? 8 : 60);
    std::vector<std::vector<Box>> owners(n_owners);
    for (auto& boxes : owners) {
      const size_t k = rng.NextUint64(4);
      for (size_t j = 0; j < k; ++j) boxes.push_back(RandomBox(&rng));
    }
    MatchTable table = Compile(owners);
    size_t non_empty = 0;
    for (const auto& boxes : owners) {
      for (const Box& b : boxes) non_empty += BoxEmpty(b) ? 0 : 1;
    }
    ASSERT_EQ(table.size(), non_empty);
    EXPECT_EQ(table.gridded(), non_empty >= MatchTable::kGridMinBoxes);
    for (int probe = 0; probe < 200; ++probe) {
      const std::vector<double> p = RandomPoint(&rng);
      std::vector<uint32_t> got;
      table.Match(p.data(), &got);
      const std::vector<uint32_t> want = Scan(owners, p.data());
      ASSERT_EQ(got, want) << "trial " << trial << " probe " << probe;
      EXPECT_EQ(table.AnyContains(p.data()), !want.empty());
    }
  }
}

}  // namespace
}  // namespace dsps::interest
