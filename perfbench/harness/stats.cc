#include "harness/stats.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

// 1-based nearest rank of percentile p in a sample of n.
size_t NearestRank(size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

double MeanOf(std::vector<double>::const_iterator begin,
              std::vector<double>::const_iterator end) {
  double sum = 0.0;
  for (auto it = begin; it != end; ++it) sum += *it;
  return sum / static_cast<double>(end - begin);
}

}  // namespace

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0.0 : MeanOf(values.begin(), values.end());
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const size_t rank = NearestRank(values.size(), p);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  return (*std::max_element(values.begin(), values.begin() + mid) + upper) / 2;
}

int TailPercentile(size_t n, size_t beyond) {
  for (int p = 99; p >= 50; --p) {
    if (n > 0 && n - NearestRank(n, p) >= beyond) return p;
  }
  return 0;
}

bool BacklogGrows(const std::vector<double>& samples, double slack) {
  if (samples.size() < 4) return false;
  const size_t quarter = samples.size() / 4;
  const double first = MeanOf(samples.begin(), samples.begin() + quarter);
  const double last = MeanOf(samples.end() - quarter, samples.end());
  return last - first > slack;
}

Attribution Attribute(const std::vector<SpanRecord>& spans) {
  std::unordered_map<int64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& span : spans) {
    if (span.parent >= 0) children[span.parent].push_back(&span);
  }
  Attribution out;
  for (const SpanRecord& span : spans) {
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<double, double>> covered;
    auto it = children.find(span.id);
    if (it != children.end()) {
      for (const SpanRecord* child : it->second) {
        const double lo = std::max(child->start, span.start);
        const double hi = std::min(child->end, span.end);
        if (hi > lo) covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    double busy = 0.0, reach = span.start;
    for (const auto& [lo, hi] : covered) {
      const double from = std::max(lo, reach);
      if (hi > from) busy += hi - from;
      reach = std::max(reach, hi);
    }
    const double self = (span.end - span.start) - busy;
    if (span.parent < 0) {
      if (span.name.rfind("bench.", 0) != 0) ++out.stray_roots;
      out.wall += span.end - span.start;
      out.unattributed += self;
    } else {
      out.layer_self[span.name.substr(0, span.name.find('.'))] += self;
    }
  }
  return out;
}

}  // namespace perfbench
