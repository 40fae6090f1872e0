// eval_grid: the paper's protocol as a researcher runs it. Each repetition
// is a cold start from the corpus on disk followed by ExperimentRunner::Run
// over a fixed configuration list with the CLI's defaults (one thread, dense
// Gibbs kernel). Tokenization, training and the source-E train sets do most
// of the work; ranking does little.
#include <cstring>

#include "eval/metrics.h"
#include "harness/common.h"
#include "harness/spans.h"
#include "harness/workloads.h"
#include "rec/ranker.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

struct Job {
  rec::ModelConfig config;
  corpus::Source source = corpus::Source::kR;
};

// Every TN configuration valid on R, the default CN, TNG, LDA and BTM on R,
// and the default TN on E (whose train sets are about ten times R's).
Result<std::vector<Job>> SweepList() {
  std::vector<Job> jobs;
  const bool r_negatives = corpus::HasNegativeExamples(corpus::Source::kR);
  for (const rec::ModelConfig& config :
       rec::EnumerateConfigs(rec::ModelKind::kTN)) {
    if (config.IsValidForSource(r_negatives)) {
      jobs.push_back(Job{config, corpus::Source::kR});
    }
  }
  for (rec::ModelKind kind : {rec::ModelKind::kCN, rec::ModelKind::kTNG,
                              rec::ModelKind::kLDA, rec::ModelKind::kBTM}) {
    Result<rec::ModelConfig> config = DefaultConfig(kind, corpus::Source::kR);
    if (!config.ok()) return config.status();
    jobs.push_back(Job{*config, corpus::Source::kR});
  }
  Result<rec::ModelConfig> tn_e =
      DefaultConfig(rec::ModelKind::kTN, corpus::Source::kE);
  if (!tn_e.ok()) return tn_e.status();
  jobs.push_back(Job{*tn_e, corpus::Source::kE});
  return jobs;
}

struct ColdRep {
  double setup_s = 0.0;
  double sweep_s = 0.0;  // set-up included
  double ttime_s = 0.0;
  double etime_s = 0.0;
  double map = 0.0;
  uint64_t failed = 0;
  std::vector<double> config_ms;
  std::vector<std::vector<double>> aps;  // per job; empty when it failed
};

Result<ColdRep> RunColdRep(const Args& args, const std::vector<Job>& jobs) {
  ColdRep rep;
  const Clock::time_point start = Clock::now();
  Result<std::unique_ptr<Stack>> stack =
      LoadStack(args.corpus_dir, RunOptionsFor(args));
  if (!stack.ok()) return stack.status();
  rep.setup_s = SecondsSince(start);
  double map_sum = 0.0;
  for (const Job& job : jobs) {
    const Clock::time_point config_start = Clock::now();
    Result<eval::RunResult> run = (*stack)->runner->Run(job.config, job.source);
    rep.config_ms.push_back(SecondsSince(config_start) * 1e3);
    if (!run.ok()) {
      std::fprintf(stderr, "config %s failed: %s\n",
                   job.config.ToString().c_str(),
                   run.status().ToString().c_str());
      ++rep.failed;
      rep.aps.emplace_back();
      continue;
    }
    rep.ttime_s += run->ttime_seconds;
    rep.etime_s += run->etime_seconds;
    map_sum += run->Map();
    rep.aps.push_back(run->aps);
  }
  rep.map = map_sum / static_cast<double>(jobs.size());
  rep.sweep_s = SecondsSince(start);
  return rep;
}

struct LayerSpans {
  const char* prepare;
  const char* build_user;
};

// Spans are named after the library module that implements the model.
LayerSpans SpansOf(rec::ModelKind kind) {
  switch (kind) {
    case rec::ModelKind::kTN:
    case rec::ModelKind::kCN:
      return {"bag.prepare", "bag.build_user"};
    case rec::ModelKind::kTNG:
    case rec::ModelKind::kCNG:
      return {"graph.prepare", "graph.build_user"};
    default:
      return {"topic.prepare", "topic.build_user"};
  }
}

// ExperimentRunner::Run taken apart into the public calls it makes, with a
// span around each: train-set materialisation, Engine::Prepare, one
// Engine::BuildUser per user, then BatchRanker::Rank and AveragePrecision
// per user under the runner's canonical tie-break stream.
Result<std::vector<double>> ReplayRun(eval::ExperimentRunner* runner,
                                      const Job& job) {
  const LayerSpans names = SpansOf(job.config.kind);
  const std::vector<corpus::UserId>& users =
      runner->GroupUsers(corpus::UserType::kAllUsers);
  std::unique_ptr<rec::Engine> engine = rec::MakeEngine(job.config);
  rec::EngineContext ctx = runner->MakeContext(job.config, job.source);
  {
    Span span("corpus.train_sets");
    for (corpus::UserId u : users) (void)runner->TrainSet(job.source, u);
  }
  {
    Span span(names.prepare);
    MICROREC_RETURN_IF_ERROR(engine->Prepare(ctx));
  }
  for (corpus::UserId u : users) {
    Span span(names.build_user);
    MICROREC_RETURN_IF_ERROR(
        engine->BuildUser(u, runner->TrainSet(job.source, u), ctx));
  }
  rec::BatchRanker ranker(engine.get(), &ctx, rec::RankerOptions{});
  microrec::Rng tie_rng(runner->options().seed, rec::kTieBreakStream);
  std::vector<double> aps;
  for (corpus::UserId u : users) {
    const corpus::UserSplit& split = runner->SplitOf(u);
    std::vector<corpus::TweetId> candidates = split.positives;
    candidates.insert(candidates.end(), split.negatives.begin(),
                      split.negatives.end());
    Result<std::vector<rec::RankedItem>> ranked = Status::Internal("unset");
    {
      Span span("rec.rank");
      ranked = ranker.Rank(u, candidates, &tie_rng);
    }
    if (!ranked.ok()) return ranked.status();
    std::vector<bool> relevant;
    relevant.reserve(ranked->size());
    for (const rec::RankedItem& item : *ranked) {
      relevant.push_back(item.index < split.positives.size());
    }
    Span span("eval.ap");
    aps.push_back(eval::AveragePrecision(relevant));
  }
  return aps;
}

// A cold stack and ReplayRun over every job, under a "bench.replay" root.
struct SweepReplay {
  std::unique_ptr<Stack> stack;
  std::vector<std::vector<double>> aps;  // per job
  double setup_s = 0.0;
  double seconds = 0.0;  // set-up included
};

Result<SweepReplay> ReplaySweep(const Args& args,
                                const std::vector<Job>& jobs) {
  SweepReplay out;
  const Clock::time_point start = Clock::now();
  Span root("bench.replay");
  Result<std::unique_ptr<Stack>> stack =
      LoadStack(args.corpus_dir, RunOptionsFor(args));
  if (!stack.ok()) return stack.status();
  out.stack = std::move(*stack);
  out.setup_s = SecondsSince(start);
  for (const Job& job : jobs) {
    Result<std::vector<double>> aps = ReplayRun(out.stack->runner.get(), job);
    if (!aps.ok()) return aps.status();
    out.aps.push_back(std::move(*aps));
  }
  out.seconds = SecondsSince(start);
  return out;
}

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(double)) == 0);
}

template <typename F>
std::vector<double> Collect(const std::vector<ColdRep>& reps, F field) {
  std::vector<double> out;
  for (const ColdRep& rep : reps) out.push_back(field(rep));
  return out;
}

}  // namespace

Status RunEvalGrid(const Args& args, Outcome* out) {
  Result<std::vector<Job>> jobs = SweepList();
  if (!jobs.ok()) return jobs.status();
  std::fprintf(stderr, "eval_grid: %zu configurations per sweep\n",
               jobs->size());

  // Measured: cold repetitions, untraced, as many as fit in the time
  // budget: another one starts only if one as long as the last still fits.
  std::vector<ColdRep> reps;
  const Clock::time_point start = Clock::now();
  do {
    Result<ColdRep> rep = RunColdRep(args, *jobs);
    if (!rep.ok()) return rep.status();
    std::fprintf(stderr,
                 "cold rep %zu: setup %.3f s, sweep %.3f s, TTime %.3f s, "
                 "ETime %.3f s, MAP %.4f\n",
                 reps.size() + 1, rep->setup_s, rep->sweep_s, rep->ttime_s,
                 rep->etime_s, rep->map);
    reps.push_back(std::move(*rep));
  } while (SecondsSince(start) + reps.back().sweep_s <= args.seconds);

  // The step-by-step replay of the same sweep, cold and untraced; in a
  // traced run it is repeated with tracing on, and the traced copy's time
  // over the untraced one's gives the tracing overhead.
  Result<SweepReplay> replay = ReplaySweep(args, *jobs);
  if (!replay.ok()) return replay.status();
  Result<SweepReplay> traced = Status::Internal("unset");
  RankCounters counters;
  if (args.trace) {
    Tracer::Get().SetEnabled(true);
    const RankCounters before = RankCounters::Read();
    traced = ReplaySweep(args, *jobs);
    if (!traced.ok()) return traced.status();
    counters = RankCounters::Read().Since(before);
    TokenizeProbe(*traced->stack->corpus, out);
    Tracer::Get().SetEnabled(false);
  }

  // Gates: every repetition and the replays give bit-identical per-user APs.
  bool reps_agree = true, replay_agrees = true, traced_agrees = true;
  for (size_t j = 0; j < jobs->size(); ++j) {
    for (const ColdRep& rep : reps) {
      reps_agree = reps_agree && BitIdentical(rep.aps[j], reps[0].aps[j]);
    }
    replay_agrees =
        replay_agrees && BitIdentical(replay->aps[j], reps[0].aps[j]);
    if (args.trace) {
      traced_agrees =
          traced_agrees && BitIdentical(traced->aps[j], reps[0].aps[j]);
    }
  }
  out->Gate(reps_agree, "per-user APs bit-identical across cold repetitions");
  out->Gate(replay_agrees,
            "per-user APs of the step-by-step replay bit-identical to "
            "ExperimentRunner::Run");
  if (args.trace) {
    out->Gate(traced_agrees,
              "per-user APs of the traced replay bit-identical to "
              "ExperimentRunner::Run");
  }

  for (const ColdRep& rep : reps) {
    out->attempted += jobs->size();
    out->failed += rep.failed;
  }
  const double sweep_s = Median(Collect(reps, [](const ColdRep& r) {
    return r.sweep_s;
  }));
  std::vector<double> setups = Collect(reps, [](const ColdRep& r) {
    return r.setup_s;
  });
  setups.push_back(replay->setup_s);
  // p50_ms is the median wall time of a whole sweep, set-up included: what
  // a researcher waits for. Throughput is the configurations completed per
  // second over all sweeps. A TN configuration takes about 0.1 s and varies
  // by ±15% from one run of it to the next on a shared host, while a sweep
  // averages over 35 configurations; the per-configuration median and tail,
  // pooled over every sweep, are per-layer figures.
  std::vector<double> config_ms;
  double measured_s = 0.0;
  for (const ColdRep& rep : reps) {
    config_ms.insert(config_ms.end(), rep.config_ms.begin(),
                     rep.config_ms.end());
    measured_s += rep.sweep_s;
  }
  const int tail = TailPercentile(config_ms.size());
  out->Set("setup_s", Median(setups), "s");
  out->Set("p50_ms", sweep_s * 1e3, "ms");
  out->Set("throughput_per_s",
           static_cast<double>(config_ms.size()) / measured_s, "1/s");
  out->Set("peak_rss_mb", PeakRssMb(), "MB");
  out->Set("eval.config_p50_ms", Median(config_ms), "ms");
  out->Set("bench.tail_ms", Percentile(config_ms, tail), "ms");
  std::fprintf(stderr,
               "%zu sweeps in %.3f s, median %.3f s; per-configuration p50 "
               "%.1f ms and p%d %.1f ms over %zu runs; replay %.3f s\n",
               reps.size(), measured_s, sweep_s, Median(config_ms), tail,
               Percentile(config_ms, tail), config_ms.size(), replay->seconds);

  // Per-layer figures.
  out->Set("eval.sweep_s", sweep_s, "s");
  out->Set("eval.ttime_s", Median(Collect(reps, [](const ColdRep& r) {
             return r.ttime_s;
           })), "s");
  out->Set("eval.etime_s", Median(Collect(reps, [](const ColdRep& r) {
             return r.etime_s;
           })), "s");
  out->Set("eval.map", reps[0].map, "ratio");
  if (!args.trace) return Status::OK();
  const std::vector<SpanRecord> spans = Tracer::Get().Spans();
  for (const char* name :
       {"corpus.load", "corpus.train_sets", "rec.preprocess", "eval.init",
        "eval.ap", "rec.rank", "bag.prepare", "graph.prepare",
        "topic.prepare"}) {
    out->Set(std::string(name) + "_s", SpanSeconds(spans, name), "s");
  }
  for (const char* layer : {"bag", "graph", "topic"}) {
    out->Set(std::string(layer) + ".build_users_s",
             SpanSeconds(spans, std::string(layer) + ".build_user"), "s");
  }
  ReportRankCounters(counters, out);
  out->Set("bench.trace_overhead_frac",
           traced->seconds / replay->seconds - 1.0, "ratio");
  ReportAttribution(spans, out);
  return Status::OK();
}

}  // namespace perfbench
