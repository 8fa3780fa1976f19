#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/rng.h"
#include "interest/box_index.h"

namespace dsps::interest {
namespace {

Box Domain3() { return Box{{0, 100}, {0, 100}, {0, 1000}}; }

TEST(BoxIndexTest, BasicInsertMatch) {
  BoxIndex index(Domain3());
  index.Insert(1, Box{{0, 50}, {0, 100}, {0, 1000}});
  index.Insert(2, Box{{40, 90}, {0, 100}, {0, 1000}});
  std::vector<int64_t> out;
  double p1[3] = {10, 50, 500};
  index.Match(p1, &out);
  EXPECT_EQ(out, (std::vector<int64_t>{1}));
  out.clear();
  double p2[3] = {45, 50, 500};
  index.Match(p2, &out);
  EXPECT_EQ(out, (std::vector<int64_t>{1, 2}));
  out.clear();
  double p3[3] = {95, 50, 500};
  index.Match(p3, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(index.size(), 2u);
  EXPECT_EQ(index.subscriber_count(), 2u);
}

TEST(BoxIndexTest, RemoveSubscriber) {
  BoxIndex index(Domain3());
  index.Insert(1, Box{{0, 100}, {0, 100}, {0, 1000}});
  index.Insert(1, Box{{0, 10}, {0, 10}, {0, 1000}});
  index.Insert(2, Box{{0, 100}, {0, 100}, {0, 1000}});
  index.Remove(1);
  EXPECT_EQ(index.size(), 1u);
  std::vector<int64_t> out;
  double p[3] = {5, 5, 5};
  index.Match(p, &out);
  EXPECT_EQ(out, (std::vector<int64_t>{2}));
  index.Remove(99);  // unknown: no-op
  EXPECT_EQ(index.size(), 1u);
}

TEST(BoxIndexTest, DedupesMultiBoxSubscriber) {
  BoxIndex index(Domain3());
  index.Insert(7, Box{{0, 60}, {0, 100}, {0, 1000}});
  index.Insert(7, Box{{40, 100}, {0, 100}, {0, 1000}});
  std::vector<int64_t> out;
  double p[3] = {50, 50, 500};  // inside both boxes
  index.Match(p, &out);
  EXPECT_EQ(out, (std::vector<int64_t>{7}));
}

TEST(BoxIndexTest, ClampsOutOfDomainPoints) {
  BoxIndex index(Domain3());
  index.Insert(1, Box{{90, 100}, {0, 100}, {0, 1000}});
  std::vector<int64_t> out;
  double beyond[3] = {150, 50, 500};  // clamps to the edge cell
  index.Match(beyond, &out);
  // The point is outside the box, so no match — but no crash either.
  EXPECT_TRUE(out.empty());
  index.Insert(2, Box{{90, 200}, {0, 100}, {0, 1000}});  // box beyond domain
  out.clear();
  index.Match(beyond, &out);
  EXPECT_EQ(out, (std::vector<int64_t>{2}));
}

/// Property: the index returns exactly what the naive scan returns, for
/// random boxes and probes, across grid resolutions.
class BoxIndexProperty : public ::testing::TestWithParam<int> {};

TEST_P(BoxIndexProperty, MatchesNaiveScan) {
  int cells = GetParam();
  common::Rng rng(static_cast<uint64_t>(cells) * 101);
  Box domain = Domain3();
  BoxIndex::Config cfg;
  cfg.cells_per_dim = cells;
  BoxIndex index(domain, cfg);
  std::vector<std::pair<int64_t, Box>> naive;
  for (int64_t sub = 0; sub < 60; ++sub) {
    int boxes = 1 + static_cast<int>(rng.NextUint64(3));
    for (int b = 0; b < boxes; ++b) {
      Box box(3);
      for (int d = 0; d < 3; ++d) {
        double lo = rng.Uniform(domain[d].lo, domain[d].hi);
        double width = rng.Uniform(0, (domain[d].hi - domain[d].lo) / 3);
        box[d] = Interval{lo, std::min(domain[d].hi, lo + width)};
      }
      index.Insert(sub, box);
      naive.emplace_back(sub, box);
    }
  }
  for (int probe = 0; probe < 500; ++probe) {
    double p[3] = {rng.Uniform(-10, 110), rng.Uniform(-10, 110),
                   rng.Uniform(-10, 1100)};
    std::vector<int64_t> got;
    index.Match(p, &got);
    std::set<int64_t> want;
    for (const auto& [sub, box] : naive) {
      if (BoxContains(box, p)) want.insert(sub);
    }
    std::vector<int64_t> want_v(want.begin(), want.end());
    EXPECT_EQ(got, want_v) << "probe " << probe << " cells " << cells;
  }
}

INSTANTIATE_TEST_SUITE_P(Resolutions, BoxIndexProperty,
                         ::testing::Values(1, 4, 16, 64));

TEST(BoxIndexTest, OneDimensionalDomain) {
  BoxIndex index(Box{{0, 100}});
  index.Insert(1, Box{{10, 20}});
  index.Insert(2, Box{{15, 30}});
  std::vector<int64_t> out;
  double p = 18;
  index.Match(&p, &out);
  EXPECT_EQ(out, (std::vector<int64_t>{1, 2}));
}

TEST(BoxIndexTest, FarOutBoundsRegisterInEdgeCells) {
  // A bound far beyond the domain (1e300, as in Interval::All()) must
  // clamp to the edge cell rather than overflow the cell arithmetic and
  // leave the box registered in no cell at all.
  BoxIndex::Config cfg;
  cfg.strategy = IndexStrategy::kGrid;
  BoxIndex index(Domain3(), cfg);
  index.Insert(1, Box{{50, 1e300}, {0, 100}, {0, 1000}});
  index.Insert(2, Box{Interval::All(), Interval::All(), Interval::All()});
  for (double x : {75.0, 99.0}) {
    std::vector<int64_t> out;
    double p[3] = {x, 50, 500};
    index.Match(p, &out);
    EXPECT_EQ(out, (std::vector<int64_t>{1, 2})) << "x = " << x;
  }
  std::vector<int64_t> out;
  double nan_point[3] = {std::nan(""), 50, 500};
  index.Match(nan_point, &out);
  EXPECT_TRUE(out.empty());
}

TEST(BoxIndexTest, EmptyBoxIgnored) {
  BoxIndex index(Domain3());
  index.Insert(1, Box{{50, 40}, {0, 100}, {0, 1000}});
  EXPECT_EQ(index.size(), 0u);
}

}  // namespace
}  // namespace dsps::interest
