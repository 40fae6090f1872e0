#include "harness/common.h"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <limits>
#include <thread>

#include "corpus/io.h"
#include "corpus/tokenized.h"
#include "harness/spans.h"
#include "harness/stats.h"
#include "obs/metrics.h"
#include "obs/request.h"
#include "synth/generator.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

// A worker stops taking requests this long after the last one was due.
constexpr double kGraceS = 0.5;
// An idle worker sleeps until this long before a request is due and spins
// for the rest, so that a read served in microseconds is not timed by how
// late the kernel wakes a sleeping thread.
constexpr auto kSpinLead = std::chrono::microseconds(200);

// Waits until `due`: a sleep with the thread's timer slack at its minimum,
// then a spin.
void WaitUntil(Clock::time_point due) {
  if (Clock::now() < due - kSpinLead) {
    std::this_thread::sleep_until(due - kSpinLead);
  }
  while (Clock::now() < due) {
  }
}

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

void Append(std::vector<double>* into, const std::vector<double>& from) {
  into->insert(into->end(), from.begin(), from.end());
}

void Merge(const PhaseResult& part, PhaseResult* out) {
  out->succeeded += part.succeeded;
  out->degraded += part.degraded;
  out->failed += part.failed;
  out->fingerprint += part.fingerprint;
  Append(&out->latency_ms, part.latency_ms);
  Append(&out->queue_wait_ms, part.queue_wait_ms);
  Append(&out->sched_lag_ms, part.sched_lag_ms);
}

}  // namespace

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Served ServeCaught(const ServeFn& serve, size_t worker,
                   const Request& request) {
  try {
    return serve(worker, request);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "request %llu threw: %s\n",
                 static_cast<unsigned long long>(request.id), e.what());
    return Served{};  // counts as failed
  }
}

void Outcome::Gate(bool ok, const std::string& what) {
  std::fprintf(stderr, "gate %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) gate_failures.push_back(what);
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

double HostCalibrationMs() {
  std::vector<uint32_t> table(1 << 17);  // 512 KiB
  uint64_t x = 1;
  for (uint32_t& v : table) v = static_cast<uint32_t>(x = Mix64(x));
  std::vector<double> passes;
  volatile uint64_t sink = 0;
  for (int pass = 0; pass < 3; ++pass) {
    const Clock::time_point start = Clock::now();
    uint64_t h = 0;
    uint32_t k = 1;
    for (int i = 0; i < 20'000'000; ++i) {
      k = k * 1664525u + 1013904223u;
      h = (h ^ table[k >> 15]) * 0x9e3779b97f4a7c15ULL;
    }
    sink = sink + h;
    passes.push_back(SecondsSince(start) * 1e3);
  }
  return Median(passes);
}

uint64_t DiskBytes(const std::string& path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (fs::is_regular_file(path, ec)) return fs::file_size(path, ec);
  uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(path, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

Result<rec::ModelConfig> DefaultConfig(rec::ModelKind kind,
                                       corpus::Source source) {
  for (const rec::ModelConfig& config : rec::EnumerateConfigs(kind)) {
    if (config.IsValidForSource(corpus::HasNegativeExamples(source))) {
      return config;
    }
  }
  return Status::InvalidArgument("no valid configuration of " +
                                 std::string(rec::ModelKindName(kind)));
}

eval::RunOptions RunOptionsFor(const Args& args) {
  eval::RunOptions options;
  options.topic_iteration_scale = kIterationScale;
  options.seed = args.seed;
  return options;
}

Result<std::unique_ptr<Stack>> LoadStack(const std::string& corpus_dir,
                                         const eval::RunOptions& options) {
  auto stack = std::make_unique<Stack>();
  {
    Span span("corpus.load");
    Result<corpus::Corpus> loaded = corpus::LoadCorpus(corpus_dir);
    if (!loaded.ok()) return loaded.status();
    stack->corpus = std::make_unique<corpus::Corpus>(std::move(*loaded));
  }
  stack->cohort = corpus::SelectCohort(
      *stack->corpus, microrec::synth::DatasetSpec::Small().cohort);
  std::vector<corpus::TweetId> stop_basis;
  for (corpus::UserId u : stack->cohort.all) {
    for (corpus::TweetId id : stack->corpus->PostsOf(u)) {
      stop_basis.push_back(id);
    }
  }
  {
    Span span("rec.preprocess");
    stack->pre = std::make_unique<rec::PreprocessedCorpus>(*stack->corpus,
                                                           stop_basis, 100);
  }
  stack->runner = std::make_unique<eval::ExperimentRunner>(
      stack->pre.get(), &stack->cohort, options);
  {
    Span span("eval.init");
    MICROREC_RETURN_IF_ERROR(stack->runner->Init());
  }
  return stack;
}

void TokenizeProbe(const corpus::Corpus& corpus, Outcome* out) {
  const auto start = std::chrono::steady_clock::now();
  {
    Span root("bench.tokenize_probe");
    Span span("text.tokenize");
    corpus::TokenizedCorpus tokenized(corpus, microrec::text::Tokenizer());
  }
  const double seconds = SecondsSince(start);
  out->Set("text.tokenize_s", seconds, "s");
  out->Set("text.tweets_per_s",
           static_cast<double>(corpus.num_tweets()) / seconds, "1/s");
}

uint64_t RankingHash(uint64_t request_id,
                     const std::vector<rec::Recommendation>& ranking) {
  uint64_t h = Mix64(request_id);
  for (const rec::Recommendation& r : ranking) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(r.score));
    std::memcpy(&bits, &r.score, sizeof(bits));
    h = Mix64(h ^ static_cast<uint64_t>(r.tweet));
    h = Mix64(h ^ bits);
  }
  return h;
}

ZipfRanks::ZipfRanks(size_t n) : cdf_(n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / static_cast<double>(i + 1);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t ZipfRanks::Sample(std::mt19937_64* rng) const {
  const double u = Uniform01(rng);
  const size_t rank =
      static_cast<size_t>(std::upper_bound(cdf_.begin(), cdf_.end(), u) -
                          cdf_.begin());
  return std::min(rank, cdf_.size() - 1);
}

double Uniform01(std::mt19937_64* rng) {
  return static_cast<double>((*rng)() >> 11) * 0x1.0p-53;
}

std::vector<Request> MakeSchedule(std::mt19937_64* rng, double rate,
                                  double seconds, size_t num_users,
                                  uint64_t first_id) {
  ZipfRanks zipf(num_users);
  std::vector<Request> schedule;
  double t = 0.0;
  for (uint64_t id = first_id;; ++id) {
    t += -std::log(1.0 - Uniform01(rng)) / rate;
    if (t >= seconds) break;
    schedule.push_back(Request{id, t, zipf.Sample(rng)});
  }
  return schedule;
}

std::string PhaseResult::Summary() const {
  char line[512];
  const int tail = TailPercentile(latency_ms.size());
  std::snprintf(
      line, sizeof(line),
      "phase %-16s due %6llu sent %6llu ok %6llu degraded %llu failed %llu"
      " | p50 %.3f ms p%d %.3f ms (n=%zu) | queue wait p99 %.3f ms"
      " | sched lag p99 %.3f ms | backlog max %.0f | %.3f s",
      name.c_str(), static_cast<unsigned long long>(due),
      static_cast<unsigned long long>(sent),
      static_cast<unsigned long long>(succeeded),
      static_cast<unsigned long long>(degraded),
      static_cast<unsigned long long>(failed), Median(latency_ms), tail,
      tail > 0 ? Percentile(latency_ms, tail) : 0.0, latency_ms.size(),
      Percentile(queue_wait_ms, 99), Percentile(sched_lag_ms, 99),
      backlog.empty() ? 0.0 : *std::max_element(backlog.begin(), backlog.end()),
      wall_s);
  return line;
}

void Account(const Served& served, PhaseResult* phase) {
  if (!served.ok) {
    ++phase->failed;
  } else if (served.rung != rec::ServingRung::kPrimary) {
    ++phase->degraded;
  } else {
    ++phase->succeeded;
  }
  phase->fingerprint += served.hash;
}

PhaseResult RunOpenLoop(const std::string& name,
                        const std::vector<Request>& schedule, size_t workers,
                        const ServeFn& serve,
                        const std::function<void()>& caller_work) {
  PhaseResult out;
  out.name = name;
  out.due = schedule.size();
  const size_t n = schedule.size();
  const double last_due = n == 0 ? 0.0 : schedule.back().due;
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> started{0};
  // Once `caller_work` returns, requests due after that instant are not sent.
  std::atomic<double> cutoff{std::numeric_limits<double>::infinity()};
  // A short lead lets every worker reach its first wait before the phase.
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  const Clock::time_point stop_at =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(last_due + kGraceS));
  std::vector<PhaseResult> parts(workers);
  std::vector<std::thread> threads;
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      PhaseResult& mine = parts[w];
      for (;;) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) break;
        const Request& request = schedule[i];
        const Clock::time_point due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(request.due));
        const Clock::time_point picked = Clock::now();
        if (picked > stop_at || request.due > cutoff.load()) break;
        const bool idle = picked < due;
        if (idle) WaitUntil(due);
        if (request.due > cutoff.load()) break;
        const Clock::time_point start = Clock::now();
        started.fetch_add(1, std::memory_order_relaxed);
        const double wait_ms = MsBetween(due, start);
        mine.queue_wait_ms.push_back(std::max(0.0, wait_ms));
        if (idle) mine.sched_lag_ms.push_back(wait_ms);
        const Served served = ServeCaught(serve, w, request);
        mine.latency_ms.push_back(MsBetween(due, Clock::now()));
        Account(served, &mine);
      }
    });
  }
  if (caller_work) {
    // The workers must be joined before anything they use goes away, so an
    // exception from `caller_work` waits for them before it propagates.
    try {
      caller_work();
    } catch (...) {
      cutoff.store(-1.0);
      for (std::thread& thread : threads) thread.join();
      throw;
    }
    const double now = std::chrono::duration<double>(Clock::now() - t0).count();
    cutoff.store(now);
    out.due = static_cast<uint64_t>(
        std::upper_bound(schedule.begin(), schedule.end(), now,
                         [](double t, const Request& r) { return t < r.due; }) -
        schedule.begin());
  } else {
    std::vector<double> dues(n);
    for (size_t i = 0; i < n; ++i) dues[i] = schedule[i].due;
    std::this_thread::sleep_until(t0);
    for (;;) {
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
      const double now = std::chrono::duration<double>(Clock::now() - t0).count();
      if (now > last_due) break;
      const size_t due_count = static_cast<size_t>(
          std::upper_bound(dues.begin(), dues.end(), now) - dues.begin());
      out.backlog.push_back(
          static_cast<double>(due_count) -
          static_cast<double>(started.load(std::memory_order_relaxed)));
    }
  }
  for (std::thread& thread : threads) thread.join();
  out.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  out.sent = started.load();
  for (const PhaseResult& part : parts) Merge(part, &out);
  return out;
}

PhaseResult RunClosedLoop(const std::string& name, size_t workers,
                          uint64_t per_worker,
                          const std::function<Request(size_t, uint64_t)>& next,
                          const ServeFn& serve) {
  PhaseResult out;
  out.name = name;
  const Clock::time_point t0 = Clock::now();
  std::vector<PhaseResult> parts(workers);
  std::vector<std::thread> threads;
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      PhaseResult& mine = parts[w];
      for (uint64_t i = 0; i < per_worker; ++i) {
        const Request request = next(w, i);
        const Clock::time_point start = Clock::now();
        const Served served = ServeCaught(serve, w, request);
        mine.latency_ms.push_back(MsBetween(start, Clock::now()));
        ++mine.due;
        Account(served, &mine);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  out.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  for (const PhaseResult& part : parts) {
    out.due += part.due;
    Merge(part, &out);
  }
  out.sent = out.due;
  return out;
}

RankCounters RankCounters::Read() {
  auto& registry = microrec::obs::MetricsRegistry::Global();
  auto value = [&registry](const char* name) {
    return registry.GetCounter(name)->value();
  };
  RankCounters c;
  c.candidates = value("rec.ranker.candidates");
  c.pruned = value("rec.ranker.pruned");
  c.scores = value("rec.engine.scores");
  c.primary = value("rec.rung.primary");
  c.bag_fallback = value("rec.rung.bag_fallback");
  c.popularity = value("rec.rung.popularity");
  return c;
}

RankCounters RankCounters::Since(const RankCounters& before) const {
  RankCounters d;
  d.candidates = candidates - before.candidates;
  d.pruned = pruned - before.pruned;
  d.scores = scores - before.scores;
  d.primary = primary - before.primary;
  d.bag_fallback = bag_fallback - before.bag_fallback;
  d.popularity = popularity - before.popularity;
  return d;
}

void ReportRankCounters(const RankCounters& delta, Outcome* out) {
  const auto count = [](uint64_t v) { return static_cast<double>(v); };
  out->Set("rec.ranker.candidates", count(delta.candidates), "count");
  out->Set("rec.ranker.pruned", count(delta.pruned), "count");
  out->Set("rec.engine.scores", count(delta.scores), "count");
  out->Set("rec.rung.primary", count(delta.primary), "count");
  out->Set("rec.rung.bag_fallback", count(delta.bag_fallback), "count");
  out->Set("rec.rung.popularity", count(delta.popularity), "count");
  // Every candidate is a cache hit, pruned, or scored by the kernel.
  const uint64_t misses = delta.pruned + delta.scores;
  const uint64_t hits = delta.candidates > misses ? delta.candidates - misses : 0;
  out->Set("rec.score_cache_hit_ratio",
           delta.candidates == 0 ? 0.0 : count(hits) / count(delta.candidates),
           "ratio");
  out->Set("rec.score_cache_hit_base", count(delta.candidates), "count");
  out->Set("rec.prune_ratio",
           misses == 0 ? 0.0 : count(delta.pruned) / count(misses), "ratio");
  out->Set("rec.prune_base", count(misses), "count");
}

Replay ReplaySchedule(const std::vector<Request>& schedule, bool traced,
                      const ReplayServeFn& serve) {
  namespace obs = microrec::obs;
  Replay out;
  const Clock::time_point start = Clock::now();
  for (const Request& request : schedule) {
    if (!traced) {
      out.fingerprint += serve(request, nullptr).hash;
      continue;
    }
    obs::RequestTrace trace(request.id, "recommend");
    {
      Span span("rec.recommend", request.id);
      out.fingerprint += serve(request, &trace).hash;
    }
    out.stage_ms[0] += trace.StageSeconds(obs::kStageCandidateGen) * 1e3;
    out.stage_ms[1] += trace.StageSeconds(obs::kStageScore) * 1e3;
    out.stage_ms[2] += trace.StageSeconds(obs::kStageRank) * 1e3;
  }
  out.seconds = SecondsSince(start);
  return out;
}

void ReportServingLayers(const std::vector<SpanRecord>& spans,
                         const RankCounters& counters, const Replay& plain,
                         const Replay& traced, size_t requests, Outcome* out) {
  for (const char* name : {"corpus.load", "rec.preprocess", "eval.init",
                           "snapshot.save", "snapshot.warm"}) {
    out->Set(std::string(name) + "_s", SpanSeconds(spans, name), "s");
  }
  const std::vector<double> service_ms = SpanMs(spans, "rec.recommend");
  out->Set("rec.recommend_service_ms_p50", Median(service_ms), "ms");
  out->Set("rec.recommend_service_ms_p99", Percentile(service_ms, 99), "ms");
  out->Set("rec.recommend_samples", static_cast<double>(service_ms.size()),
           "count");
  const double per_request =
      requests == 0 ? 0.0 : 1.0 / static_cast<double>(requests);
  out->Set("rec.candidate_gen_ms", traced.stage_ms[0] * per_request, "ms");
  out->Set("rec.score_ms", traced.stage_ms[1] * per_request, "ms");
  out->Set("rec.rank_ms", traced.stage_ms[2] * per_request, "ms");
  ReportRankCounters(counters, out);
  out->Set("bench.trace_overhead_frac", traced.seconds / plain.seconds - 1.0,
           "ratio");
  ReportAttribution(spans, out);
}

double SpanSeconds(const std::vector<SpanRecord>& spans,
                   const std::string& name) {
  double total = 0.0;
  for (const SpanRecord& span : spans) {
    if (span.name == name) total += span.end - span.start;
  }
  return total;
}

std::vector<double> SpanMs(const std::vector<SpanRecord>& spans,
                           const std::string& name) {
  std::vector<double> out;
  for (const SpanRecord& span : spans) {
    if (span.name == name) out.push_back((span.end - span.start) * 1e3);
  }
  return out;
}

void ReportAttribution(const std::vector<SpanRecord>& spans, Outcome* out) {
  const Attribution attribution = Attribute(spans);
  for (const auto& [layer, self] : attribution.layer_self) {
    out->Set(layer + ".self_s", self, "s");
  }
  out->Set("unattributed_s", attribution.unattributed, "s");
  out->Set("bench.traced_wall_s", attribution.wall, "s");
  std::fprintf(stderr, "traced wall %.3f s =", attribution.wall);
  for (const auto& [layer, self] : attribution.layer_self) {
    std::fprintf(stderr, " %s %.3f +", layer.c_str(), self);
  }
  std::fprintf(stderr, " unattributed %.3f\n", attribution.unattributed);
  out->Gate(attribution.stray_roots == 0,
            "every traced span lies inside a bench.* section");
}

}  // namespace perfbench
