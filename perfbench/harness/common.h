// Pieces the three workloads share: run arguments, the result they report,
// the evaluation stack built the way the CLI builds it, the seeded request
// generator, the open-loop executor and ranking fingerprints.
#ifndef MICROREC_PERFBENCH_COMMON_H_
#define MICROREC_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "corpus/corpus.h"
#include "corpus/user_types.h"
#include "eval/experiment.h"
#include "rec/model_config.h"
#include "rec/preprocessed.h"
#include "harness/stats.h"
#include "rec/serving.h"
#include "util/status.h"

namespace microrec::obs {
class RequestTrace;
}  // namespace microrec::obs

namespace perfbench {

namespace corpus = microrec::corpus;
namespace eval = microrec::eval;
namespace rec = microrec::rec;
using microrec::Result;
using microrec::Status;

/// Client threads of the serving workloads. With the writer of serve_ingest
/// (or the backlog sampler of serve_timeline) on the main thread, a workload
/// uses at most four threads.
inline constexpr size_t kWorkers = 3;
/// Cold set-ups per run of a serving workload; setup_s is their median.
inline constexpr int kSetupRepeats = 5;
/// The CLI's defaults for evaluate / load.
inline constexpr double kIterationScale = 0.03;
inline constexpr size_t kScoreCacheCapacity = 4096;
/// Generator seed of the workload corpus. The corpus is the benchmark's
/// stated input size, so it is the same in every run: over generator seeds
/// the medium corpus's training work varies by about a quarter. The run's
/// --seed drives everything else (see RunOptionsFor and the request
/// generators).
inline constexpr uint64_t kCorpusSeed = 1;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string corpus_dir;
  std::string work_dir;
  std::string spans_path;
};

/// What a workload reports. Metric names and units match BENCHMARK.json.
struct Outcome {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::vector<std::string> gate_failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a correctness gate; a failed gate makes the run incorrect.
  void Gate(bool ok, const std::string& what);
};

double SecondsSince(std::chrono::steady_clock::time_point start);

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// Wall time of a fixed loop of integer hashing and table lookups in an
/// L2-sized table, the median of three passes of some tens of ms. The loop is
/// the benchmark's own, so it moves only when the machine's speed moves.
double HostCalibrationMs();

/// Size of a file, or of every regular file under a directory, in bytes.
uint64_t DiskBytes(const std::string& path);

/// The CLI's default configuration of `kind` on `source`: the first entry
/// of its grid that is valid for the source.
Result<rec::ModelConfig> DefaultConfig(rec::ModelKind kind,
                                       corpus::Source source);

/// The evaluation stack of the CLI's Stack::Load plus an initialised
/// ExperimentRunner. Heap-allocated members keep the references between
/// them valid.
struct Stack {
  std::unique_ptr<corpus::Corpus> corpus;
  corpus::UserCohort cohort;
  std::unique_ptr<rec::PreprocessedCorpus> pre;
  std::unique_ptr<eval::ExperimentRunner> runner;
};

/// The CLI's evaluate / load options, with the run's --seed as the
/// experiment seed: it draws the test-set negatives, the Gibbs chains and
/// the tie-break stream.
eval::RunOptions RunOptionsFor(const Args& args);

/// Cold-builds the stack from a corpus directory: corpus::LoadCorpus,
/// SelectCohort, rec::PreprocessedCorpus, ExperimentRunner::Init. Each call
/// is wrapped in a span ("corpus.load", "rec.preprocess", "eval.init").
Result<std::unique_ptr<Stack>> LoadStack(const std::string& corpus_dir,
                                         const eval::RunOptions& options);

/// Tokenizes `corpus` on its own under a "text.tokenize" span, in a
/// "bench.tokenize_probe" root of its own. PreprocessedCorpus does this work
/// inside "rec.preprocess"; the probe separates it. Sets text.tokenize_s and
/// text.tweets_per_s.
void TokenizeProbe(const corpus::Corpus& corpus, Outcome* out);

/// SplitMix64 finaliser: a well-mixed 64-bit hash of `x`.
uint64_t Mix64(uint64_t x);

/// Order-independent fingerprint of served rankings: the sum of one mixed
/// hash per request, so concurrent completion order does not matter.
uint64_t RankingHash(uint64_t request_id,
                     const std::vector<rec::Recommendation>& ranking);

/// Zipf(s = 1) sampler over ranks [0, n), seeded by the benchmark.
class ZipfRanks {
 public:
  explicit ZipfRanks(size_t n);
  size_t Sample(std::mt19937_64* rng) const;

 private:
  std::vector<double> cdf_;
};

/// Uniform double in [0, 1) from a 64-bit generator.
double Uniform01(std::mt19937_64* rng);

/// One request of an open-loop schedule.
struct Request {
  uint64_t id = 0;
  double due = 0.0;  // seconds after the phase starts
  size_t user_rank = 0;
};

/// Poisson arrivals at `rate` per second for `seconds`, Zipf user ranks
/// over `num_users`. Request ids count from `first_id`.
std::vector<Request> MakeSchedule(std::mt19937_64* rng, double rate,
                                  double seconds, size_t num_users,
                                  uint64_t first_id);

/// Outcome of serving one request.
struct Served {
  bool ok = false;
  rec::ServingRung rung = rec::ServingRung::kPrimary;
  uint64_t hash = 0;
};

/// Per-phase accounting and timings of an open- or closed-loop phase.
struct PhaseResult {
  std::string name;
  uint64_t due = 0, sent = 0, succeeded = 0, degraded = 0, failed = 0;
  std::vector<double> latency_ms;     // from due time, per completed request
  std::vector<double> queue_wait_ms;  // due time until the call started
  std::vector<double> sched_lag_ms;   // lateness of an idle worker's wake-up
  std::vector<double> backlog;        // due-but-unstarted, sampled
  double wall_s = 0.0;
  uint64_t fingerprint = 0;

  double CompletedPerSecond() const {
    return wall_s > 0 ? static_cast<double>(succeeded + degraded) / wall_s
                      : 0.0;
  }
  /// One line of accounting for the run log.
  std::string Summary() const;
};

using ServeFn = std::function<Served(size_t worker, const Request&)>;

/// Calls `serve`; an exception it throws is logged and counts as a failed
/// request instead of ending a worker thread.
Served ServeCaught(const ServeFn& serve, size_t worker, const Request& request);

/// Serves `schedule` open-loop on `workers` threads: each request is due at
/// phase start + `due`, and its latency counts from then. A worker stops
/// taking requests half a second after the last one was due; what it leaves
/// is due but not sent. Meanwhile the calling thread runs `caller_work` when
/// given, and the phase ends when it returns: requests due later are not
/// part of the phase. Without `caller_work` the calling thread samples the
/// backlog every 25 ms.
PhaseResult RunOpenLoop(const std::string& name,
                        const std::vector<Request>& schedule, size_t workers,
                        const ServeFn& serve,
                        const std::function<void()>& caller_work = {});

/// Serves `per_worker` requests back to back on each of `workers` threads
/// (closed loop). `next(worker, i)` gives each worker's i-th request.
PhaseResult RunClosedLoop(const std::string& name, size_t workers,
                          uint64_t per_worker,
                          const std::function<Request(size_t, uint64_t)>& next,
                          const ServeFn& serve);

/// Folds `served` into the phase accounting.
void Account(const Served& served, PhaseResult* phase);

/// Ranking and serving counters read from obs::MetricsRegistry.
struct RankCounters {
  uint64_t candidates = 0, pruned = 0, scores = 0;
  uint64_t primary = 0, bag_fallback = 0, popularity = 0;

  static RankCounters Read();
  RankCounters Since(const RankCounters& before) const;
};

/// Sets the rec.* counter metrics, plus the prune and score-cache-hit
/// ratios, each with its base.
void ReportRankCounters(const RankCounters& delta, Outcome* out);

/// One-thread replay of a schedule: the rankings fingerprint, the wall time
/// of the serving loop and, when traced, the summed stage split of
/// QueryOptions::trace.
struct Replay {
  uint64_t fingerprint = 0;
  double seconds = 0.0;
  double stage_ms[3] = {0.0, 0.0, 0.0};  // candidate_gen, score, rank sums
};

using ReplayServeFn =
    std::function<Served(const Request&, microrec::obs::RequestTrace*)>;

/// Serves `schedule` in order on the calling thread. With `traced`, each
/// request runs under a "rec.recommend" span with a RequestTrace whose
/// stages are summed; otherwise `serve` gets a null trace.
Replay ReplaySchedule(const std::vector<Request>& schedule, bool traced,
                      const ReplayServeFn& serve);

/// The per-layer report both serving workloads share: span seconds of the
/// set-up calls, Recommend service time, the mean stage split per request,
/// the ranking counters of the traced replay, the trace overhead of
/// `traced` against `plain` (the same replay untraced) and the attribution.
void ReportServingLayers(const std::vector<SpanRecord>& spans,
                         const RankCounters& counters, const Replay& plain,
                         const Replay& traced, size_t requests, Outcome* out);

/// Total duration of the spans named `name`, in seconds.
double SpanSeconds(const std::vector<SpanRecord>& spans,
                   const std::string& name);
/// Durations of the spans named `name`, in milliseconds.
std::vector<double> SpanMs(const std::vector<SpanRecord>& spans,
                           const std::string& name);

/// Sets "<layer>.self_s" for every layer with spans, "unattributed_s" and
/// "bench.traced_wall_s", and gates on every span lying inside a bench.*
/// section.
void ReportAttribution(const std::vector<SpanRecord>& spans, Outcome* out);

}  // namespace perfbench

#endif  // MICROREC_PERFBENCH_COMMON_H_
