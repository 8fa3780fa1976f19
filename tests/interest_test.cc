#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "interest/interest.h"
#include "interest/interval.h"
#include "interest/measure.h"

namespace dsps::interest {
namespace {

// ---------------------------------------------------------------- Interval

TEST(IntervalTest, BasicOps) {
  Interval a{0, 10};
  EXPECT_FALSE(a.empty());
  EXPECT_DOUBLE_EQ(a.length(), 10.0);
  EXPECT_TRUE(a.Contains(0));
  EXPECT_TRUE(a.Contains(10));
  EXPECT_FALSE(a.Contains(10.5));
  Interval empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_DOUBLE_EQ(empty.length(), 0.0);
}

TEST(IntervalTest, OverlapAndIntersect) {
  Interval a{0, 10}, b{5, 15}, c{11, 20};
  EXPECT_TRUE(a.Overlaps(b));
  EXPECT_FALSE(a.Overlaps(c));
  Interval ab = a.Intersect(b);
  EXPECT_DOUBLE_EQ(ab.lo, 5.0);
  EXPECT_DOUBLE_EQ(ab.hi, 10.0);
  EXPECT_TRUE(a.Intersect(c).empty());
}

TEST(IntervalTest, Covers) {
  Interval a{0, 10};
  EXPECT_TRUE(a.Covers(Interval{2, 8}));
  EXPECT_TRUE(a.Covers(Interval{0, 10}));
  EXPECT_FALSE(a.Covers(Interval{-1, 5}));
  EXPECT_TRUE(a.Covers(Interval{}));  // empty covered by anything
}

TEST(BoxTest, ContainsAndVolume) {
  Box b{{0, 10}, {0, 2}};
  double in[] = {5, 1};
  double out[] = {5, 3};
  EXPECT_TRUE(BoxContains(b, in));
  EXPECT_FALSE(BoxContains(b, out));
  EXPECT_DOUBLE_EQ(BoxVolume(b), 20.0);
  Box empty{{0, 10}, {3, 2}};
  EXPECT_TRUE(BoxEmpty(empty));
  EXPECT_DOUBLE_EQ(BoxVolume(empty), 0.0);
}

TEST(BoxTest, IntersectAndCovers) {
  Box a{{0, 10}, {0, 10}};
  Box b{{5, 15}, {5, 15}};
  Box ab = BoxIntersect(a, b);
  EXPECT_DOUBLE_EQ(BoxVolume(ab), 25.0);
  EXPECT_TRUE(BoxCovers(a, Box{{1, 2}, {1, 2}}));
  EXPECT_FALSE(BoxCovers(a, b));
}

// ------------------------------------------------------------- UnionVolume

TEST(UnionVolumeTest, SingleBox) {
  EXPECT_DOUBLE_EQ(UnionVolume({Box{{0, 2}, {0, 3}}}), 6.0);
}

TEST(UnionVolumeTest, DisjointBoxesAdd) {
  EXPECT_DOUBLE_EQ(UnionVolume({Box{{0, 1}}, Box{{2, 4}}}), 3.0);
}

TEST(UnionVolumeTest, OverlapNotDoubleCounted1D) {
  EXPECT_DOUBLE_EQ(UnionVolume({Box{{0, 10}}, Box{{5, 15}}}), 15.0);
}

TEST(UnionVolumeTest, OverlapNotDoubleCounted2D) {
  // Two 10x10 squares overlapping in a 5x5 corner: 100+100-25.
  EXPECT_DOUBLE_EQ(
      UnionVolume({Box{{0, 10}, {0, 10}}, Box{{5, 15}, {5, 15}}}), 175.0);
}

TEST(UnionVolumeTest, ContainedBoxIgnored) {
  EXPECT_DOUBLE_EQ(
      UnionVolume({Box{{0, 10}, {0, 10}}, Box{{2, 4}, {2, 4}}}), 100.0);
}

TEST(UnionVolumeTest, ThreeDimensional) {
  // Two unit cubes sharing half their volume.
  Box a{{0, 1}, {0, 1}, {0, 1}};
  Box b{{0.5, 1.5}, {0, 1}, {0, 1}};
  EXPECT_DOUBLE_EQ(UnionVolume({a, b}), 1.5);
}

TEST(UnionVolumeTest, EmptyInput) {
  EXPECT_DOUBLE_EQ(UnionVolume({}), 0.0);
  EXPECT_DOUBLE_EQ(UnionVolume({Box{{1, 0}}}), 0.0);
}

/// Property: union volume computed exactly matches a Monte-Carlo estimate
/// on random 2D box sets.
TEST(UnionVolumeTest, MatchesMonteCarloOnRandomSets) {
  common::Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Box> boxes;
    int n = 1 + static_cast<int>(rng.NextUint64(6));
    for (int i = 0; i < n; ++i) {
      double x0 = rng.Uniform(0, 80), y0 = rng.Uniform(0, 80);
      boxes.push_back(Box{{x0, x0 + rng.Uniform(1, 20)},
                          {y0, y0 + rng.Uniform(1, 20)}});
    }
    double exact = UnionVolume(boxes);
    int hits = 0;
    const int samples = 20000;
    for (int s = 0; s < samples; ++s) {
      double p[2] = {rng.Uniform(0, 100), rng.Uniform(0, 100)};
      for (const Box& b : boxes) {
        if (BoxContains(b, p)) {
          ++hits;
          break;
        }
      }
    }
    double mc = 100.0 * 100.0 * hits / samples;
    EXPECT_NEAR(exact, mc, 100.0 * 100.0 * 0.02)
        << "trial " << trial << " n=" << n;
  }
}

TEST(IntersectionVolumeTest, PairwisePieces) {
  std::vector<Box> a{Box{{0, 10}}};
  std::vector<Box> b{Box{{5, 20}}, Box{{-5, 2}}};
  // [0,10] ∩ ([5,20] ∪ [-5,2]) = [5,10] ∪ [0,2] → 5 + 2.
  EXPECT_DOUBLE_EQ(IntersectionVolume(a, b), 7.0);
}

TEST(IntersectionVolumeTest, DisjointIsZero) {
  EXPECT_DOUBLE_EQ(
      IntersectionVolume({Box{{0, 1}}}, {Box{{2, 3}}}), 0.0);
}

// ------------------------------------------------------------- InterestSet

TEST(InterestSetTest, MatchesOwnBoxes) {
  InterestSet set;
  set.Add(0, Box{{0, 10}});
  set.Add(0, Box{{20, 30}});
  set.Add(1, Box{{5, 6}});
  double p5 = 5, p15 = 15, p25 = 25;
  EXPECT_TRUE(set.Matches(0, &p5));
  EXPECT_FALSE(set.Matches(0, &p15));
  EXPECT_TRUE(set.Matches(0, &p25));
  EXPECT_FALSE(set.Matches(2, &p5));
  EXPECT_TRUE(set.InterestedIn(1));
  EXPECT_FALSE(set.InterestedIn(2));
  EXPECT_EQ(set.streams(), (std::vector<common::StreamId>{0, 1}));
  EXPECT_EQ(set.TotalBoxes(), 3);
}

TEST(InterestSetTest, EmptyBoxesIgnored) {
  InterestSet set;
  set.Add(0, Box{{5, 1}});
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.TotalBoxes(), 0);
}

TEST(InterestSetTest, MergeFromIsUnion) {
  InterestSet a, b;
  a.Add(0, Box{{0, 1}});
  b.Add(0, Box{{2, 3}});
  b.Add(1, Box{{0, 1}});
  a.MergeFrom(b);
  double p2_5 = 2.5;
  EXPECT_TRUE(a.Matches(0, &p2_5));
  EXPECT_TRUE(a.InterestedIn(1));
  EXPECT_EQ(a.TotalBoxes(), 3);
}

/// Property: the incremental per-stream merge is bit-identical to the
/// full MergeFrom + Simplify whenever the destination is already
/// simplified (the install path's invariant), and its changed-stream
/// list names exactly the streams whose stored boxes moved.
TEST(InterestSetTest, MergeSimplifyFromMatchesMergeThenSimplify) {
  common::Rng rng(77);
  auto random_set = [&rng](int max_boxes) {
    InterestSet s;
    int n = 1 + static_cast<int>(rng.NextUint64(max_boxes));
    for (int i = 0; i < n; ++i) {
      auto stream = static_cast<common::StreamId>(rng.NextUint64(3));
      double lo0 = rng.Uniform(0, 80);
      double lo1 = rng.Uniform(0, 80);
      // Mix covered, covering, identical, and disjoint boxes.
      s.Add(stream, Box{{lo0, lo0 + rng.Uniform(0, 30)},
                        {lo1, lo1 + rng.Uniform(0, 30)}});
    }
    return s;
  };
  for (int round = 0; round < 300; ++round) {
    InterestSet base = random_set(6);
    base.Simplify();
    InterestSet add = random_set(4);
    InterestSet ref = base;
    ref.MergeFrom(add);
    ref.Simplify();
    InterestSet inc = base;
    std::vector<common::StreamId> changed;
    inc.MergeSimplifyFrom(add, &changed);
    EXPECT_TRUE(inc == ref) << "round " << round;
    for (common::StreamId s = 0; s < 3; ++s) {
      const std::vector<Box>* b0 = base.boxes_for(s);
      const std::vector<Box>* b1 = inc.boxes_for(s);
      bool moved = (b0 == nullptr ? std::vector<Box>() : *b0) !=
                   (b1 == nullptr ? std::vector<Box>() : *b1);
      bool listed =
          std::find(changed.begin(), changed.end(), s) != changed.end();
      EXPECT_EQ(listed, moved) << "round " << round << " stream " << s;
    }
  }
}

TEST(InterestSetTest, LeadingStreamIsFirstNonEmpty) {
  InterestSet set;
  EXPECT_EQ(set.leading_stream(), common::kInvalidStream);
  set.Add(4, Box{{0, 1}});
  set.Add(2, Box{{0, 1}});
  EXPECT_EQ(set.leading_stream(), 2);
  EXPECT_EQ(set.leading_stream(), set.streams()[0]);
}

TEST(InterestSetTest, SimplifyDropsCoveredBoxes) {
  InterestSet set;
  set.Add(0, Box{{0, 10}});
  set.Add(0, Box{{2, 5}});
  set.Add(0, Box{{0, 10}});  // duplicate
  set.Simplify();
  EXPECT_EQ(set.TotalBoxes(), 1);
  double p3 = 3;
  EXPECT_TRUE(set.Matches(0, &p3));
}

TEST(InterestSetTest, SimplifyBoxesRemapsSegmentBounds) {
  // Two segments, [0, 3) and [3, 5): the kernel keeps order and reports
  // where each segment's survivors start in the output.
  std::vector<Box> boxes{Box{{0, 10}}, Box{{2, 5}}, Box{{20, 30}},
                         Box{{0, 10}}, Box{{40, 50}}};
  std::vector<uint32_t> bounds{0, 3, 5};
  SimplifyBoxes(&boxes, &bounds);
  EXPECT_EQ(boxes, (std::vector<Box>{Box{{0, 10}}, Box{{20, 30}},
                                     Box{{40, 50}}}));
  EXPECT_EQ(bounds, (std::vector<uint32_t>{0, 2, 3}));
}

/// Property: Simplify never changes Matches() on random point probes.
TEST(InterestSetTest, SimplifyPreservesSemantics) {
  common::Rng rng(123);
  for (int trial = 0; trial < 10; ++trial) {
    InterestSet set;
    for (int i = 0; i < 8; ++i) {
      double lo = rng.Uniform(0, 90);
      set.Add(0, Box{{lo, lo + rng.Uniform(0, 10)}});
    }
    InterestSet simplified = set;
    simplified.Simplify();
    for (int probe = 0; probe < 200; ++probe) {
      double p = rng.Uniform(-5, 105);
      EXPECT_EQ(set.Matches(0, &p), simplified.Matches(0, &p)) << p;
    }
  }
}

// ----------------------------------------------------- Catalog and weights

StreamCatalog MakeCatalog() {
  StreamCatalog cat;
  StreamStats s;
  s.domain = Box{{0, 100}};
  s.tuples_per_s = 10;
  s.bytes_per_tuple = 10;  // 100 B/s
  cat.Register(0, s);
  StreamStats s2;
  s2.domain = Box{{0, 10}, {0, 10}};
  s2.tuples_per_s = 5;
  s2.bytes_per_tuple = 20;  // 100 B/s
  cat.Register(1, s2);
  return cat;
}

TEST(MeasureTest, CoverageFraction) {
  InterestSet set;
  set.Add(0, Box{{0, 50}});
  StreamCatalog cat = MakeCatalog();
  EXPECT_DOUBLE_EQ(CoverageFraction(set, 0, cat.stats(0).domain), 0.5);
  EXPECT_DOUBLE_EQ(CoverageFraction(set, 1, cat.stats(1).domain), 0.0);
}

TEST(MeasureTest, CoverageClipsToDomain) {
  InterestSet set;
  set.Add(0, Box{{-100, 200}});
  StreamCatalog cat = MakeCatalog();
  EXPECT_DOUBLE_EQ(CoverageFraction(set, 0, cat.stats(0).domain), 1.0);
}

TEST(MeasureTest, InterestRate) {
  InterestSet set;
  set.Add(0, Box{{0, 25}});
  StreamCatalog cat = MakeCatalog();
  EXPECT_DOUBLE_EQ(InterestRateBytesPerSec(set, 0, cat.stats(0)), 25.0);
}

TEST(MeasureTest, SharedRateSymmetricAndCorrect) {
  StreamCatalog cat = MakeCatalog();
  InterestSet a, b;
  a.Add(0, Box{{0, 60}});
  b.Add(0, Box{{40, 100}});
  // Overlap [40,60] = 20% of the domain → 20 B/s.
  EXPECT_DOUBLE_EQ(SharedRateBytesPerSec(a, b, cat), 20.0);
  EXPECT_DOUBLE_EQ(SharedRateBytesPerSec(b, a, cat), 20.0);
}

TEST(MeasureTest, SharedRateSumsOverStreams) {
  StreamCatalog cat = MakeCatalog();
  InterestSet a, b;
  a.Add(0, Box{{0, 100}});
  b.Add(0, Box{{0, 100}});
  a.Add(1, Box{{0, 10}, {0, 5}});
  b.Add(1, Box{{0, 10}, {0, 10}});
  // Stream 0: full 100 B/s; stream 1: half of domain → 50 B/s.
  EXPECT_DOUBLE_EQ(SharedRateBytesPerSec(a, b, cat), 150.0);
}

TEST(MeasureTest, TotalRate) {
  StreamCatalog cat = MakeCatalog();
  InterestSet a;
  a.Add(0, Box{{0, 100}});
  a.Add(1, Box{{0, 5}, {0, 10}});
  EXPECT_DOUBLE_EQ(TotalRateBytesPerSec(a, cat), 150.0);
}

TEST(MeasureTest, CatalogBasics) {
  StreamCatalog cat = MakeCatalog();
  EXPECT_TRUE(cat.Contains(0));
  EXPECT_FALSE(cat.Contains(9));
  EXPECT_EQ(cat.size(), 2u);
  EXPECT_EQ(cat.streams(), (std::vector<common::StreamId>{0, 1}));
  EXPECT_DOUBLE_EQ(cat.stats(0).bytes_per_s(), 100.0);
}

/// Property: shared rate is bounded by each side's total rate.
TEST(MeasureTest, SharedRateBoundedByTotals) {
  common::Rng rng(55);
  StreamCatalog cat = MakeCatalog();
  for (int trial = 0; trial < 20; ++trial) {
    InterestSet a, b;
    for (int i = 0; i < 3; ++i) {
      double lo = rng.Uniform(0, 90);
      a.Add(0, Box{{lo, lo + rng.Uniform(0, 30)}});
      lo = rng.Uniform(0, 90);
      b.Add(0, Box{{lo, lo + rng.Uniform(0, 30)}});
    }
    double shared = SharedRateBytesPerSec(a, b, cat);
    EXPECT_LE(shared, TotalRateBytesPerSec(a, cat) + 1e-9);
    EXPECT_LE(shared, TotalRateBytesPerSec(b, cat) + 1e-9);
    EXPECT_GE(shared, -1e-9);
  }
}

}  // namespace
}  // namespace dsps::interest
