#include "harness/spans.h"

#include <cstdio>

namespace perfbench {

namespace {
// Innermost open span on this thread (-1 outside any span).
thread_local int64_t t_open_span = -1;
}  // namespace

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double Tracer::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

std::vector<SpanRecord> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::Record(SpanRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(record));
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fputs("{\"traceEvents\":[", file);
  bool first = true;
  for (const SpanRecord& span : Spans()) {
    std::fprintf(file,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                 "\"parent\":%lld,\"rid\":%llu}}",
                 first ? "" : ",", span.name.c_str(), span.start * 1e6,
                 (span.end - span.start) * 1e6,
                 static_cast<long long>(span.id),
                 static_cast<long long>(span.parent),
                 static_cast<unsigned long long>(span.request_id));
    first = false;
  }
  std::fputs("\n]}\n", file);
  return std::fclose(file) == 0;
}

Span::Span(const char* name, uint64_t request_id)
    : name_(name),
      active_(Tracer::Get().enabled()),
      request_id_(request_id) {
  if (!active_) return;
  Tracer& tracer = Tracer::Get();
  id_ = tracer.NextId();
  parent_ = t_open_span;
  t_open_span = id_;
  start_ = tracer.Now();
}

Span::~Span() {
  if (!active_) return;
  Tracer& tracer = Tracer::Get();
  t_open_span = parent_;
  tracer.Record(SpanRecord{name_, start_, tracer.Now(), id_, parent_,
                           request_id_});
}

}  // namespace perfbench
