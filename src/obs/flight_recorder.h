// Perf flight recorder: a background sampler that appends point-in-time
// registry snapshots to a JSONL file, turning the run-report's single
// end-of-run number into a time series (DESIGN.md §12). Each line is one
// self-contained JSON object:
//
//   {"schema":"microrec.flight/1","sample":3,"elapsed_seconds":0.75,
//    "metrics":{"counters":{...},"gauges":{...},"histograms":{...},
//               "sketches":{...}}}
//
// so QPS ramps, degradation-rung flips and latency-sketch drift during a
// load run can be replayed after the fact (`jq` straight over the file).
// The final sample is always written by Stop()/the destructor, so even a
// run shorter than one interval leaves a record. Lines are appended with a
// single fwrite per sample; a reader should drop a torn last line left by a
// crash mid-write.
#ifndef MICROREC_OBS_FLIGHT_RECORDER_H_
#define MICROREC_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>

namespace microrec::obs {

class FlightRecorder {
 public:
  struct Options {
    std::string path;
    /// Seconds between samples; clamped to >= 10ms.
    double interval_seconds = 0.25;
    /// Truncate instead of append when opening the file.
    bool truncate = true;
  };

  /// Opens the file and starts the sampler thread. A recorder that failed
  /// to open (ok() == false) is inert: Stop() is safe, nothing samples.
  explicit FlightRecorder(Options options);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  bool ok() const { return file_ != nullptr; }

  /// Stops the sampler, writes one final sample and closes the file.
  /// Idempotent.
  void Stop();

  /// Samples written so far (test hook).
  uint64_t samples() const { return samples_.load(std::memory_order_relaxed); }

 private:
  void SamplerLoop();
  void WriteSample();

  Options options_;
  std::FILE* file_ = nullptr;
  std::chrono::steady_clock::time_point start_;
  std::atomic<uint64_t> samples_{0};

  std::mutex mu_;  // guards stop_ for the interruptible wait, and file_ I/O
  std::condition_variable wake_;
  bool stop_ = false;
  std::thread sampler_;
};

}  // namespace microrec::obs

#endif  // MICROREC_OBS_FLIGHT_RECORDER_H_
