// Statistics the benchmark reports: nearest-rank percentiles, the choice of
// the highest percentile that still has ten samples beyond it, backlog-growth
// detection for open-loop phases, and self-time accounting over nested spans.
#ifndef MICROREC_PERFBENCH_STATS_H_
#define MICROREC_PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile `p` (0 < p <= 100) of `values` (any order).
/// Returns 0 for an empty input.
double Percentile(std::vector<double> values, double p);

/// Arithmetic mean; 0 for an empty input.
double Mean(const std::vector<double>& values);

/// Median; the mean of the two middle values for an even count. 0 if empty.
double Median(std::vector<double> values);

/// The highest whole percentile in [50, 99] whose nearest-rank position
/// leaves at least `beyond` samples above it in a sample of `n`. Returns 0
/// when even the median leaves fewer than `beyond` samples (n too small).
int TailPercentile(size_t n, size_t beyond = 10);

/// True when the backlog (requests due but not yet started, sampled at equal
/// intervals over a phase) grows: the mean of the last quarter of samples
/// exceeds the mean of the first quarter by more than `slack` requests.
/// Fewer than four samples never count as growing.
bool BacklogGrows(const std::vector<double>& samples, double slack);

/// One closed span: times in seconds from any common origin.
struct SpanRecord {
  std::string name;  // "<layer>.<call>", e.g. "corpus.load"
  double start = 0.0;
  double end = 0.0;
  int64_t id = 0;
  int64_t parent = -1;  // -1 for a root span
  uint64_t request_id = 0;
};

/// Wall time of a traced run split by layer. A span's self time is its
/// duration minus the part of it covered by its children; a layer is the
/// part of a span's name before the first '.'. Root spans mark the traced
/// sections: their durations sum to `wall`, and their own self time is the
/// `unattributed` residual, so the layer self times plus `unattributed`
/// add up to `wall`. Every root should be a "bench.*" span; a root of any
/// other layer is a library call traced outside the traced sections, and
/// `stray_roots` counts them.
struct Attribution {
  std::map<std::string, double> layer_self;
  double unattributed = 0.0;
  double wall = 0.0;
  size_t stray_roots = 0;
};

Attribution Attribute(const std::vector<SpanRecord>& spans);

}  // namespace perfbench

#endif  // MICROREC_PERFBENCH_STATS_H_
