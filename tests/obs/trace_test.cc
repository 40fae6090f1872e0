#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "testing/scratch_dir.h"

namespace microrec::obs {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

size_t CountOccurrences(const std::string& text, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

/// Checks that braces/brackets balance outside of string literals — enough
/// structure validation to catch malformed emission without a JSON parser.
bool BalancedJson(const std::string& text) {
  int braces = 0, brackets = 0;
  bool in_string = false, escaped = false;
  for (char ch : text) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (ch == '\\') escaped = true;
      if (ch == '"') in_string = false;
      continue;
    }
    switch (ch) {
      case '"': in_string = true; break;
      case '{': ++braces; break;
      case '}': --braces; break;
      case '[': ++brackets; break;
      case ']': --brackets; break;
      default: break;
    }
    if (braces < 0 || brackets < 0) return false;
  }
  return braces == 0 && brackets == 0 && !in_string;
}

// Tests share the process-wide trace state, so each one leaves tracing
// stopped; gtest runs them in declaration order within this file.

TEST(TraceTest, DisabledByDefaultSpansAreNoOps) {
  ::unsetenv("MICROREC_TRACE");
  StopTracing();  // ensure a known-disabled state
  EXPECT_FALSE(TracingEnabled());
  {
    MICROREC_SPAN("ignored");
    TraceSpan dynamic("also_ignored");
  }
  EXPECT_EQ(TraceEventCount(), 0u);
}

TEST(TraceTest, StartStopWritesBalancedChromeTraceJson) {
  testutil::ScratchDir scratch("microrec_trace");
  const std::string path = scratch.File("trace.json");
  ASSERT_TRUE(StartTracing(path));
  EXPECT_TRUE(TracingEnabled());
  {
    MICROREC_SPAN("outer");
    {
      MICROREC_SPAN("inner");
    }
    std::thread worker([] { TraceSpan span("worker_span"); });
    worker.join();
  }
  EXPECT_EQ(TraceEventCount(), 6u);
  StopTracing();
  EXPECT_FALSE(TracingEnabled());

  std::string json = ReadFile(path);
  ASSERT_FALSE(json.empty());
  EXPECT_TRUE(BalancedJson(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // Every begin event has a matching end event.
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"B\""), 3u);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"E\""), 3u);
  EXPECT_EQ(CountOccurrences(json, "\"outer\""), 2u);
  EXPECT_EQ(CountOccurrences(json, "\"worker_span\""), 2u);
}

TEST(TraceTest, StartWhileActiveIsRejected) {
  testutil::ScratchDir scratch("microrec_trace");
  const std::string path = scratch.File("trace.json");
  ASSERT_TRUE(StartTracing(path));
  EXPECT_FALSE(StartTracing(path + ".other"));
  StopTracing();
}

TEST(TraceTest, StopIsIdempotentAndDisablesRecording) {
  testutil::ScratchDir scratch("microrec_trace");
  const std::string path = scratch.File("trace.json");
  ASSERT_TRUE(StartTracing(path));
  { MICROREC_SPAN("once"); }
  StopTracing();
  StopTracing();  // no crash, no rewrite
  { MICROREC_SPAN("after_stop"); }
  EXPECT_EQ(TraceEventCount(), 0u);
  std::string json = ReadFile(path);
  EXPECT_EQ(CountOccurrences(json, "\"after_stop\""), 0u);
}

TEST(TraceTest, RequestIdTagsSpansAsArgs) {
  testutil::ScratchDir scratch("microrec_trace");
  const std::string path = scratch.File("trace.json");
  ASSERT_TRUE(StartTracing(path));
  { TraceSpan span("scoped_query", 42); }
  { TraceSpan span("anonymous_query"); }  // rid 0 emits no args
  StopTracing();
  std::string json = ReadFile(path);
  EXPECT_TRUE(BalancedJson(json)) << json;
  EXPECT_EQ(CountOccurrences(json, "\"args\":{\"rid\":42}"), 2u);
  EXPECT_EQ(CountOccurrences(json, "\"rid\":0"), 0u);
}

TEST(TraceTest, ConcurrentSpansEmitValidJson) {
  testutil::ScratchDir scratch("microrec_trace");
  const std::string path = scratch.File("trace.json");
  ASSERT_TRUE(StartTracing(path));
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 200;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        const uint64_t rid =
            static_cast<uint64_t>(t) * kSpansPerThread + i + 1;
        TraceSpan outer("mt_outer", rid);
        TraceSpan inner("mt_inner", rid);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(TraceEventCount(),
            static_cast<size_t>(kThreads) * kSpansPerThread * 4);
  StopTracing();

  std::string json = ReadFile(path);
  ASSERT_FALSE(json.empty());
  // The whole file stays structurally valid under concurrent emission...
  EXPECT_TRUE(BalancedJson(json));
  // ...every begin has its end...
  const size_t expected =
      static_cast<size_t>(kThreads) * kSpansPerThread * 2;
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"B\""), expected);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"E\""), expected);
  // ...and every span kept its request-id tag.
  EXPECT_EQ(CountOccurrences(json, "\"args\":{\"rid\":"), expected * 2);

  // Timestamps are monotonically non-decreasing in buffer order: the
  // recorder captures them inside the lock, so a viewer never sees a
  // time-travelling event stream.
  std::vector<long long> timestamps;
  const std::string key = "\"ts\":";
  for (size_t pos = json.find(key); pos != std::string::npos;
       pos = json.find(key, pos + key.size())) {
    timestamps.push_back(std::atoll(json.c_str() + pos + key.size()));
  }
  ASSERT_EQ(timestamps.size(), expected * 2);
  for (size_t i = 1; i < timestamps.size(); ++i) {
    ASSERT_LE(timestamps[i - 1], timestamps[i]) << "event " << i;
  }
}

TEST(TraceTest, DynamicNamesAreJsonEscaped) {
  testutil::ScratchDir scratch("microrec_trace");
  const std::string path = scratch.File("trace.json");
  ASSERT_TRUE(StartTracing(path));
  { TraceSpan span("config:\"quoted\""); }
  StopTracing();
  std::string json = ReadFile(path);
  EXPECT_TRUE(BalancedJson(json)) << json;
  EXPECT_NE(json.find("config:\\\"quoted\\\""), std::string::npos);
}

}  // namespace
}  // namespace microrec::obs
