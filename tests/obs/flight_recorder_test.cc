#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "testing/scratch_dir.h"

namespace microrec::obs {
namespace {

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// One JSONL line must be a single balanced object (same brace-matching
/// check trace_test uses — enough to catch torn or interleaved writes).
bool BalancedObject(const std::string& text) {
  int braces = 0;
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
    if (ch == '"') in_string = true;
    if (ch == '{') ++braces;
    if (ch == '}') --braces;
    if (braces < 0) return false;
  }
  return braces == 0 && !in_string;
}

TEST(FlightRecorderTest, StopWritesFinalSampleEvenOnShortRuns) {
  testutil::ScratchDir scratch("microrec_flight");
  const std::string path = scratch.File("flight.jsonl");
  FlightRecorder::Options options;
  options.path = path;
  options.interval_seconds = 60.0;  // never fires on its own
  FlightRecorder recorder(options);
  ASSERT_TRUE(recorder.ok());
  recorder.Stop();
  recorder.Stop();  // idempotent
  EXPECT_GE(recorder.samples(), 1u);
  std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), recorder.samples());
  for (const std::string& line : lines) {
    EXPECT_TRUE(BalancedObject(line)) << line;
    EXPECT_NE(line.find("\"schema\":\"microrec.flight/1\""),
              std::string::npos);
    EXPECT_NE(line.find("\"elapsed_seconds\""), std::string::npos);
    EXPECT_NE(line.find("\"metrics\""), std::string::npos);
  }
}

TEST(FlightRecorderTest, SamplesAccumulateWhileRunning) {
  testutil::ScratchDir scratch("microrec_flight");
  const std::string path = scratch.File("flight.jsonl");
  FlightRecorder::Options options;
  options.path = path;
  options.interval_seconds = 0.0;  // clamped up to the 10ms floor
  FlightRecorder recorder(options);
  ASSERT_TRUE(recorder.ok());
  MetricsRegistry::Global().GetCounter("flight.test")->Increment();
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  recorder.Stop();
  EXPECT_GE(recorder.samples(), 2u);
  std::vector<std::string> lines = ReadLines(path);
  EXPECT_EQ(lines.size(), recorder.samples());
  // Sample indices are sequential from 0.
  EXPECT_NE(lines.front().find("\"sample\":0,"), std::string::npos);
  // The registry contents ride along on every line.
  EXPECT_NE(lines.back().find("flight.test"), std::string::npos);
}

TEST(FlightRecorderTest, UnopenablePathIsInert) {
  FlightRecorder::Options options;
  options.path = "/nonexistent-dir/flight.jsonl";
  FlightRecorder recorder(options);
  EXPECT_FALSE(recorder.ok());
  recorder.Stop();  // no crash
  EXPECT_EQ(recorder.samples(), 0u);
}

TEST(FlightRecorderTest, TruncateReplacesPriorContents) {
  testutil::ScratchDir scratch("microrec_flight");
  const std::string path = scratch.File("flight.jsonl");
  {
    std::ofstream out(path);
    out << "stale line\n";
  }
  FlightRecorder::Options options;
  options.path = path;
  options.interval_seconds = 60.0;
  FlightRecorder recorder(options);
  recorder.Stop();
  std::vector<std::string> lines = ReadLines(path);
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines.front().find("stale"), std::string::npos);
}

}  // namespace
}  // namespace microrec::obs
