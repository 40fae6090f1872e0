// Tests of the benchmark's own statistics: tail-percentile choice, backlog
// growth detection, and self time / unattributed accounting over spans.
#include "harness/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace perfbench {
namespace {

TEST(PercentileTest, NearestRank) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);
  EXPECT_EQ(Percentile(values, 50), 50);
  EXPECT_EQ(Percentile(values, 99), 99);
  EXPECT_EQ(Percentile(values, 100), 100);
  EXPECT_EQ(Percentile({}, 99), 0);
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
}

TEST(TailPercentileTest, KeepsTenSamplesBeyond) {
  // p99 of 1,000 sits at rank 990: exactly ten samples beyond.
  EXPECT_EQ(TailPercentile(1000), 99);
  EXPECT_EQ(TailPercentile(999), 98);
  EXPECT_EQ(TailPercentile(100000), 99);
  // 36 samples: rank ceil(0.72 * 36) = 26 leaves ten; p73 leaves nine.
  EXPECT_EQ(TailPercentile(36), 72);
  EXPECT_EQ(TailPercentile(20), 50);
  EXPECT_EQ(TailPercentile(19), 0);
  EXPECT_EQ(TailPercentile(0), 0);
  for (size_t n = 20; n < 3000; n += 7) {
    const int p = TailPercentile(n);
    ASSERT_GE(p, 50);
    const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
    EXPECT_GE(n - rank, 10u) << n;
    if (p < 99) {
      const size_t next = static_cast<size_t>(std::ceil((p + 1) / 100.0 * n));
      EXPECT_LT(n - next, 10u) << n;
    }
  }
}

TEST(BacklogGrowsTest, LinearGrowthGrows) {
  std::vector<double> samples;
  for (int i = 0; i < 40; ++i) samples.push_back(i * 5.0);
  EXPECT_TRUE(BacklogGrows(samples, 6));
}

TEST(BacklogGrowsTest, NoisyFlatBacklogDoesNot) {
  std::vector<double> samples;
  for (int i = 0; i < 40; ++i) samples.push_back(i % 3 == 0 ? 4.0 : 0.0);
  EXPECT_FALSE(BacklogGrows(samples, 6));
}

TEST(BacklogGrowsTest, ShortBurstInTheMiddleDoesNot) {
  std::vector<double> samples(40, 1.0);
  for (int i = 18; i < 22; ++i) samples[i] = 50.0;
  EXPECT_FALSE(BacklogGrows(samples, 6));
}

TEST(BacklogGrowsTest, TooFewSamples) {
  EXPECT_FALSE(BacklogGrows({0, 100, 200}, 6));
}

SpanRecord MakeSpan(const char* name, double start, double end, int64_t id,
                    int64_t parent) {
  return SpanRecord{name, start, end, id, parent, 0};
}

TEST(AttributeTest, SelfTimeSubtractsChildren) {
  // root [0, 10]: corpus.load [0, 2]; rec.rank [3, 8] containing
  // bag.kernel [4, 6]. Root self = 10 - 2 - 5 = 3.
  const std::vector<SpanRecord> spans = {
      MakeSpan("corpus.load", 0, 2, 1, 0),
      MakeSpan("bag.kernel", 4, 6, 3, 2),
      MakeSpan("rec.rank", 3, 8, 2, 0),
      MakeSpan("bench.root", 0, 10, 0, -1),
  };
  const Attribution a = Attribute(spans);
  EXPECT_DOUBLE_EQ(a.wall, 10);
  EXPECT_DOUBLE_EQ(a.unattributed, 3);
  EXPECT_DOUBLE_EQ(a.layer_self.at("corpus"), 2);
  EXPECT_DOUBLE_EQ(a.layer_self.at("rec"), 3);
  EXPECT_DOUBLE_EQ(a.layer_self.at("bag"), 2);
  double sum = a.unattributed;
  for (const auto& [layer, self] : a.layer_self) sum += self;
  EXPECT_DOUBLE_EQ(sum, a.wall);
}

TEST(AttributeTest, OverlappingChildrenCountOnce) {
  // Children on two threads overlap in [2, 3]; the parent is busy [1, 4].
  const std::vector<SpanRecord> spans = {
      MakeSpan("bench.root", 0, 5, 0, -1),
      MakeSpan("rec.a", 1, 3, 1, 0),
      MakeSpan("rec.b", 2, 4, 2, 0),
  };
  const Attribution a = Attribute(spans);
  EXPECT_DOUBLE_EQ(a.unattributed, 2);
  EXPECT_DOUBLE_EQ(a.layer_self.at("rec"), 4);
}

TEST(AttributeTest, SeveralRootsSumToWall) {
  const std::vector<SpanRecord> spans = {
      MakeSpan("bench.setup", 0, 2, 0, -1),
      MakeSpan("corpus.load", 0.5, 1.5, 1, 0),
      MakeSpan("bench.replay", 3, 7, 2, -1),
      MakeSpan("rec.recommend", 3, 6.5, 3, 2),
  };
  const Attribution a = Attribute(spans);
  EXPECT_DOUBLE_EQ(a.wall, 6);
  EXPECT_DOUBLE_EQ(a.unattributed, 1.5);
  EXPECT_DOUBLE_EQ(a.layer_self.at("corpus"), 1);
  EXPECT_DOUBLE_EQ(a.layer_self.at("rec"), 3.5);
  EXPECT_EQ(a.stray_roots, 0u);
}

TEST(AttributeTest, CountsRootsOutsideTheBenchSections) {
  // snapshot.warm closed with no bench.* span open: its time would land in
  // unattributed, so it is counted as a stray root.
  const std::vector<SpanRecord> spans = {
      MakeSpan("bench.replay", 0, 2, 0, -1),
      MakeSpan("rec.recommend", 0.5, 1.5, 1, 0),
      MakeSpan("snapshot.warm", 3, 4, 2, -1),
      MakeSpan("benchmark.x", 5, 6, 3, -1),
  };
  const Attribution a = Attribute(spans);
  EXPECT_EQ(a.stray_roots, 2u);
}

}  // namespace
}  // namespace perfbench
