// serve_timeline: a trained TN snapshot served the way `microrec load`
// serves it by default (one rec::DegradingRecommender per client thread),
// under open-loop Poisson traffic at fixed offered rates. Every request
// ranks 200 tweet ids drawn from the whole corpus, so the per-user score
// cache mostly misses and the ranker and the bag similarity kernel
// dominate. Requests come from the benchmark's own seeded generator, not
// from the library's load module.
#include <iterator>
#include <cstdio>
#include <filesystem>
#include <map>

#include "harness/common.h"
#include "harness/spans.h"
#include "harness/workloads.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

// Offered rate of each measurement window, requests per second; 0 marks a
// closed-loop capacity window. kReferenceRate is where p50_ms and bench.tail_ms
// are read. With about 1.8 ms of service time per request, three workers
// saturate near 1,600 requests per second.
constexpr double kWindowRates[] = {500.0, 250.0, 500.0, 0.0,
                                   1000.0, 500.0, 0.0,  500.0};
// A capacity window serves a fixed number of requests, about one window of
// work at saturation, so every run leaves the caches in the same state.
constexpr double kCapacityRequestsPerSecond = 1500.0;
constexpr double kReferenceRate = 500.0;
// Latency limit for max_qps, on p99 (or the highest percentile with ten
// samples beyond it): about ten times the service time.
constexpr double kLatencyLimitMs = 20.0;
constexpr size_t kCandidates = 200;
constexpr size_t kTopK = 10;
constexpr uint64_t kWarmupPerWorker = 100;
// Request-id ranges, so no two requests of a run share an id.
constexpr uint64_t kPhaseIdStride = 10'000'000;
constexpr uint64_t kWarmupIds = 900'000'000;

// 200 tweet ids drawn uniformly from the whole corpus, a pure function of
// (seed, request id).
std::vector<corpus::TweetId> FreshCandidates(uint64_t seed, uint64_t rid,
                                             size_t num_tweets) {
  std::mt19937_64 rng(seed ^ Mix64(rid));
  std::vector<corpus::TweetId> out(kCandidates);
  for (corpus::TweetId& id : out) {
    id = static_cast<corpus::TweetId>(rng() % num_tweets);
  }
  return out;
}

struct Serving {
  std::unique_ptr<Stack> stack;
  rec::EngineContext ctx;
  rec::ServingOptions options;
  std::vector<corpus::UserId> users;
  std::vector<std::unique_ptr<rec::DegradingRecommender>> workers;
};

Served Serve(rec::DegradingRecommender* recommender, corpus::UserId user,
             const std::vector<corpus::TweetId>& candidates, uint64_t rid,
             microrec::obs::RequestTrace* trace = nullptr) {
  rec::QueryOptions query;
  query.request_id = rid;
  query.trace = trace;
  rec::RecommendResult result = recommender->Recommend(user, candidates, query);
  return Served{!result.ranking.empty(), result.rung,
                RankingHash(rid, result.ranking)};
}

// The timed set-up: cold stack, one warmed recommender per worker, and a
// closed-loop warm-up pass on every worker.
Result<Serving> BuildServing(const Args& args, const rec::ModelConfig& config,
                             const eval::RunOptions& options,
                             PhaseResult* warmup) {
  Serving s;
  Result<std::unique_ptr<Stack>> stack = LoadStack(args.corpus_dir, options);
  if (!stack.ok()) return stack.status();
  s.stack = std::move(*stack);
  eval::ExperimentRunner& runner = *s.stack->runner;
  s.ctx = runner.MakeContext(config, corpus::Source::kR);
  s.options.primary = config;
  s.options.snapshot_path = runner.SnapshotPath(config, corpus::Source::kR);
  s.options.top_k = kTopK;
  s.options.score_threads = 1;
  s.options.score_cache_capacity = kScoreCacheCapacity;
  s.users = runner.GroupUsers(corpus::UserType::kAllUsers);
  // ExperimentRunner::TrainSet fills its cache on first use and is not
  // thread-safe. The recommenders read train sets through it on every
  // query, so fill the cache here, before the client threads share it, as
  // ExperimentRunner::Run does before it trains.
  for (corpus::UserId u : s.users) (void)runner.TrainSet(corpus::Source::kR, u);
  for (size_t w = 0; w < kWorkers; ++w) {
    s.workers.push_back(
        std::make_unique<rec::DegradingRecommender>(s.ctx, s.options));
    MICROREC_RETURN_IF_ERROR(s.workers.back()->Warm());
  }
  const size_t num_tweets = s.stack->corpus->num_tweets();
  const ZipfRanks zipf(s.users.size());
  std::vector<std::mt19937_64> rngs;
  for (size_t w = 0; w < kWorkers; ++w) rngs.emplace_back(args.seed + w);
  *warmup = RunClosedLoop(
      "warm-up", kWorkers, kWarmupPerWorker,
      [&](size_t w, uint64_t i) {
        return Request{kWarmupIds + w * kWarmupPerWorker + i, 0.0,
                       zipf.Sample(&rngs[w])};
      },
      [&](size_t w, const Request& r) {
        return Serve(s.workers[w].get(), s.users[r.user_rank],
                     FreshCandidates(args.seed, r.id, num_tweets), r.id);
      });
  return s;
}

// Serves `schedule` in order on one fresh recommender (see ReplaySchedule).
Replay ReplayOn(rec::DegradingRecommender* recommender, const Serving& s,
                const std::vector<Request>& schedule,
                const std::vector<std::vector<corpus::TweetId>>& candidates,
                bool traced) {
  const uint64_t first_id = schedule.empty() ? 0 : schedule.front().id;
  return ReplaySchedule(
      schedule, traced,
      [&](const Request& request, microrec::obs::RequestTrace* trace) {
        return Serve(recommender, s.users[request.user_rank],
                     candidates[request.id - first_id], request.id, trace);
      });
}

}  // namespace

Status RunServeTimeline(const Args& args, Outcome* out) {
  Result<rec::ModelConfig> config =
      DefaultConfig(rec::ModelKind::kTN, corpus::Source::kR);
  if (!config.ok()) return config.status();
  eval::RunOptions options = RunOptionsFor(args);
  options.snapshot_dir = args.work_dir + "/snapshots";
  std::filesystem::create_directories(options.snapshot_dir);

  // Untimed: train and save the snapshot, as `microrec train` does.
  {
    eval::RunOptions train = options;
    train.snapshot_save = true;
    Result<std::unique_ptr<Stack>> stack = LoadStack(args.corpus_dir, train);
    if (!stack.ok()) return stack.status();
    Result<eval::RunResult> run =
        (*stack)->runner->Run(*config, corpus::Source::kR);
    if (!run.ok()) return run.status();
  }

  // Timed set-up, repeated; the last one serves the measured phases.
  std::vector<double> setups;
  Serving serving;
  PhaseResult warmup;
  for (int k = 0; k < kSetupRepeats; ++k) {
    serving = Serving{};
    const Clock::time_point start = Clock::now();
    Result<Serving> built = BuildServing(args, *config, options, &warmup);
    if (!built.ok()) return built.status();
    serving = std::move(*built);
    setups.push_back(SecondsSince(start));
    std::fprintf(stderr, "set-up %d: %.3f s; %s\n", k + 1, setups.back(),
                 warmup.Summary().c_str());
  }
  const size_t num_tweets = serving.stack->corpus->num_tweets();

  // Measured: eight windows, open-loop at fixed offered rates except for
  // two closed-loop capacity windows. The reference rate gets four windows
  // spread over the run; p50_ms and bench.tail_ms pool them, and
  // throughput_per_s pools both capacity windows.
  const double window_s = args.seconds / std::size(kWindowRates);
  std::mt19937_64 rng(args.seed);
  std::map<double, std::vector<PhaseResult>> by_rate;
  std::vector<PhaseResult> capacity;
  std::vector<Request> reference;
  std::vector<std::vector<corpus::TweetId>> reference_candidates;
  ZipfRanks zipf(serving.users.size());
  std::vector<std::mt19937_64> worker_rngs;
  for (size_t w = 0; w < kWorkers; ++w) worker_rngs.emplace_back(args.seed ^ Mix64(w));
  for (size_t p = 0; p < std::size(kWindowRates); ++p) {
    const double rate = kWindowRates[p];
    const uint64_t first_id = (p + 1) * kPhaseIdStride;
    if (rate == 0.0) {
      PhaseResult phase = RunClosedLoop(
          "closed-loop", kWorkers,
          static_cast<uint64_t>(kCapacityRequestsPerSecond * window_s /
                                kWorkers),
          [&](size_t w, uint64_t i) {
            return Request{first_id + i * kWorkers + w, 0.0,
                           zipf.Sample(&worker_rngs[w])};
          },
          [&](size_t w, const Request& request) {
            return Serve(serving.workers[w].get(),
                         serving.users[request.user_rank],
                         FreshCandidates(args.seed, request.id, num_tweets),
                         request.id);
          });
      std::fprintf(stderr, "%s | %.1f requests/s\n", phase.Summary().c_str(),
                   phase.CompletedPerSecond());
      capacity.push_back(std::move(phase));
      continue;
    }
    std::vector<Request> schedule = MakeSchedule(
        &rng, rate, window_s, serving.users.size(), first_id);
    std::vector<std::vector<corpus::TweetId>> candidates;
    for (const Request& request : schedule) {
      candidates.push_back(FreshCandidates(args.seed, request.id, num_tweets));
    }
    PhaseResult phase = RunOpenLoop(
        "open@" + std::to_string(static_cast<int>(rate)) + "/s", schedule,
        kWorkers, [&](size_t w, const Request& request) {
          return Serve(serving.workers[w].get(),
                       serving.users[request.user_rank],
                       candidates[request.id - first_id], request.id);
        });
    std::fprintf(stderr, "%s\n", phase.Summary().c_str());
    if (rate == kReferenceRate && reference.empty()) {
      reference = std::move(schedule);
      reference_candidates = std::move(candidates);
    }
    by_rate[rate].push_back(std::move(phase));
  }

  // max_qps: the highest rate, below every rate that missed, whose windows
  // sent everything, failed and degraded nothing, kept the backlog from
  // growing, and whose pooled tail latency meets the limit.
  double max_qps = 0.0;
  for (const auto& [rate, windows] : by_rate) {
    std::vector<double> pooled;
    bool clean = true;
    for (const PhaseResult& w : windows) {
      pooled.insert(pooled.end(), w.latency_ms.begin(), w.latency_ms.end());
      clean = clean && w.sent == w.due && w.failed == 0 && w.degraded == 0 &&
              !BacklogGrows(w.backlog, 2.0 * kWorkers);
    }
    const int p = TailPercentile(pooled.size());
    const bool meets =
        clean && p > 0 && Percentile(pooled, p) <= kLatencyLimitMs;
    std::fprintf(stderr, "rate %.0f/s: p%d %.3f ms over %zu requests, %s\n",
                 rate, p, Percentile(pooled, p), pooled.size(),
                 meets ? "meets the limit" : "misses the limit");
    if (!meets) break;
    max_qps = rate;
  }

  const std::vector<PhaseResult>& reference_windows = by_rate[kReferenceRate];
  const PhaseResult& reference_phase = reference_windows.front();
  // Gate: the first reference window, served concurrently, ranks exactly
  // what one thread replaying the same schedule ranks.
  rec::DegradingRecommender replay_recommender(serving.ctx, serving.options);
  MICROREC_RETURN_IF_ERROR(replay_recommender.Warm());
  const Replay replay = ReplayOn(&replay_recommender, serving, reference,
                                 reference_candidates, false);
  bool all_sent = true;
  for (const PhaseResult& w : reference_windows) {
    all_sent = all_sent && w.sent == w.due;
  }
  out->Gate(all_sent, "every reference-rate request was sent");
  out->Gate(replay.fingerprint == reference_phase.fingerprint,
            "reference-rate rankings fingerprint equals a single-threaded "
            "replay of the schedule");

  std::vector<double> reference_latency, reference_wait, reference_lag;
  for (const PhaseResult& w : reference_windows) {
    reference_latency.insert(reference_latency.end(), w.latency_ms.begin(),
                             w.latency_ms.end());
    reference_wait.insert(reference_wait.end(), w.queue_wait_ms.begin(),
                          w.queue_wait_ms.end());
    reference_lag.insert(reference_lag.end(), w.sched_lag_ms.begin(),
                         w.sched_lag_ms.end());
  }
  // Capacity pools both closed-loop windows: requests completed over their
  // summed wall time.
  double capacity_done = 0.0, capacity_s = 0.0;
  for (const PhaseResult& w : capacity) {
    capacity_done += static_cast<double>(w.succeeded + w.degraded);
    capacity_s += w.wall_s;
  }
  for (const auto& [rate, windows] : by_rate) {
    for (const PhaseResult& w : windows) {
      out->attempted += w.sent;
      out->failed += w.failed + w.degraded;
    }
  }
  for (const PhaseResult& w : capacity) {
    out->attempted += w.sent;
    out->failed += w.failed + w.degraded;
  }
  const int tail = TailPercentile(reference_latency.size());
  out->Set("setup_s", Median(setups), "s");
  out->Set("p50_ms", Median(reference_latency), "ms");
  out->Set("bench.tail_ms", Percentile(reference_latency, tail), "ms");
  out->Set("throughput_per_s", capacity_done / capacity_s, "1/s");
  out->Set("peak_rss_mb", PeakRssMb(), "MB");
  std::fprintf(stderr,
               "reference %.0f/s: p50 and p%d over %zu windows, %zu "
               "requests; max_qps %.0f (limit %.0f ms)\n",
               kReferenceRate, tail, reference_windows.size(),
               reference_latency.size(), max_qps, kLatencyLimitMs);
  if (!args.trace) return Status::OK();

  // Traced run: a cold set-up through the public calls, then the reference
  // schedule replayed on one thread with a span around each Recommend.
  out->Set("bench.max_qps", max_qps, "1/s");
  out->Set("bench.queue_wait_ms", Percentile(reference_wait, 99), "ms");
  out->Set("bench.sched_lag_ms", Percentile(reference_lag, 99), "ms");
  const rec::ServingOptions serving_options = serving.options;
  serving = Serving{};
  Tracer::Get().SetEnabled(true);
  Serving traced;
  std::unique_ptr<rec::DegradingRecommender> recommender;
  {
    Span root("bench.traced_setup");
    Result<std::unique_ptr<Stack>> stack = LoadStack(args.corpus_dir, options);
    if (!stack.ok()) return stack.status();
    traced.stack = std::move(*stack);
    traced.ctx = traced.stack->runner->MakeContext(*config, corpus::Source::kR);
    traced.options = serving_options;
    traced.users = traced.stack->runner->GroupUsers(corpus::UserType::kAllUsers);
    std::unique_ptr<rec::Engine> engine = rec::MakeEngine(*config);
    {
      Span span("snapshot.load");
      MICROREC_RETURN_IF_ERROR(
          engine->LoadSnapshot(serving_options.snapshot_path, traced.ctx));
    }
    {
      Span span("snapshot.save");
      MICROREC_RETURN_IF_ERROR(
          engine->SaveSnapshot(args.work_dir + "/resaved.snap", traced.ctx));
    }
    recommender =
        std::make_unique<rec::DegradingRecommender>(traced.ctx, traced.options);
    Span span("snapshot.warm");
    MICROREC_RETURN_IF_ERROR(recommender->Warm());
  }
  // The same replay untraced on another fresh recommender, just before the
  // traced one, for the overhead.
  Tracer::Get().SetEnabled(false);
  rec::DegradingRecommender plain(traced.ctx, traced.options);
  MICROREC_RETURN_IF_ERROR(plain.Warm());
  const Replay plain_replay =
      ReplayOn(&plain, traced, reference, reference_candidates, false);
  Tracer::Get().SetEnabled(true);
  const RankCounters before = RankCounters::Read();
  Replay traced_replay;
  {
    Span root("bench.traced_replay");
    traced_replay = ReplayOn(recommender.get(), traced, reference,
                             reference_candidates, true);
  }
  const RankCounters counters = RankCounters::Read().Since(before);
  TokenizeProbe(*traced.stack->corpus, out);
  Tracer::Get().SetEnabled(false);
  out->Gate(traced_replay.fingerprint == reference_phase.fingerprint,
            "traced replay rankings fingerprint equals the reference phase");
  out->Set("snapshot.bytes",
           static_cast<double>(DiskBytes(serving_options.snapshot_path)),
           "bytes");
  ReportServingLayers(Tracer::Get().Spans(), counters, plain_replay,
                      traced_replay, reference.size(), out);
  return Status::OK();
}

}  // namespace perfbench
