// In-memory span recorder for the traced run. Spans are opened around calls
// into the library's public functions from the benchmark's own code; nothing
// inside the library is instrumented. While disabled, a Span costs one
// relaxed atomic load.
#ifndef MICROREC_PERFBENCH_SPANS_H_
#define MICROREC_PERFBENCH_SPANS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "harness/stats.h"

namespace perfbench {

class Tracer {
 public:
  static Tracer& Get();

  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Seconds since the tracer was created (the common span time origin).
  double Now() const;

  /// Every span closed so far, in closing order.
  std::vector<SpanRecord> Spans() const;

  /// Writes the spans as Chrome trace_event JSON (loadable in Perfetto).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  friend class Span;
  Tracer();
  int64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(SpanRecord record);

  const std::chrono::steady_clock::time_point origin_;
  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

/// RAII span. Its parent is the innermost open span on the same thread.
/// `name` must outlive the span (use literals).
class Span {
 public:
  explicit Span(const char* name, uint64_t request_id = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  bool active_;
  int64_t id_ = -1;
  int64_t parent_ = -1;
  uint64_t request_id_;
  double start_ = 0.0;
};

}  // namespace perfbench

#endif  // MICROREC_PERFBENCH_SPANS_H_
