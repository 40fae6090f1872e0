// serve_ingest: the serving layer used differently from serve_timeline.
// Reads go through stream::LiveRecommender (one epoch shard per reader) and
// rank each user's own test set, as `microrec load` does, so they mostly hit
// the score cache until an epoch flip discards it. Meanwhile one writer
// drains a stream cut through the WAL-backed StreamSession, checkpointing
// and publishing a new epoch every few batches. Stream users and query users
// are disjoint halves of the cohort, so ingest never changes what a read
// returns.
#include <cstdio>
#include <filesystem>

#include "harness/common.h"
#include "harness/spans.h"
#include "harness/workloads.h"
#include "stream/live.h"
#include "stream/session.h"

namespace perfbench {

namespace {

namespace stream = microrec::stream;
using Clock = std::chrono::steady_clock;

// Offered read rate, requests per second, on kWorkers reader threads.
constexpr double kReadRate = 1000.0;
// Share of the stream users' training documents in the base model; the
// rest is the stream (1,720 tweets, about eight seconds of writer time on
// the workload corpus).
constexpr double kCutFraction = 0.25;
constexpr size_t kTopK = 10;
// The CLI's ingest defaults: tweets per WAL batch and batches per
// checkpoint; every checkpoint is published as a new epoch.
constexpr size_t kBatchSize = 8;
constexpr size_t kCheckpointEvery = 4;
constexpr uint64_t kWarmupIds = 900'000'000;

struct Ingest {
  std::string state_dir;
  std::unique_ptr<Stack> stack;
  rec::EngineContext ctx;
  rec::ServingOptions options;
  std::vector<corpus::UserId> query_users;
  std::vector<std::vector<corpus::TweetId>> test_sets;  // per query user
  std::unique_ptr<stream::StreamSession> session;
  std::shared_ptr<stream::LiveRecommender> live;
  std::shared_ptr<const stream::TrainSetMap> initial_train;
};

Served Read(stream::LiveRecommender* live, const Ingest& in,
            const Request& request, microrec::obs::RequestTrace* trace = nullptr) {
  rec::QueryOptions query;
  query.request_id = request.id;
  query.trace = trace;
  Result<rec::RecommendResult> result =
      live->Recommend(in.query_users[request.user_rank],
                      in.test_sets[request.user_rank], query);
  if (!result.ok()) return Served{};
  return Served{true, result->rung, RankingHash(request.id, result->ranking)};
}

Status Publish(const Ingest& in, stream::LiveRecommender* live) {
  return live->Publish(in.session->checkpoint_snapshot_path(),
                       in.session->epoch(), in.session->CopyTrainSets());
}

// The timed set-up: cold stack, stream cut, session opened on an empty
// state directory, the first publish, and one warm-up read per query user.
Result<Ingest> BuildIngest(const Args& args, const rec::ModelConfig& config,
                           const std::string& state_dir, PhaseResult* warmup) {
  Ingest in;
  in.state_dir = state_dir;
  Result<std::unique_ptr<Stack>> stack =
      LoadStack(args.corpus_dir, RunOptionsFor(args));
  if (!stack.ok()) return stack.status();
  in.stack = std::move(*stack);
  in.ctx = in.stack->runner->MakeContext(config, corpus::Source::kR);
  const std::vector<corpus::UserId>& users =
      in.stack->runner->GroupUsers(corpus::UserType::kAllUsers);
  const size_t half = users.size() / 2;
  if (half == 0) return Status::FailedPrecondition("cohort too small to split");
  in.query_users.assign(users.begin(), users.begin() + half);
  for (corpus::UserId u : in.query_users) {
    in.test_sets.push_back(in.stack->runner->SplitOf(u).TestSet());
  }
  stream::StreamCutOptions cut_options;
  cut_options.cut_fraction = kCutFraction;
  cut_options.stream_users.assign(users.begin() + half, users.end());
  Result<stream::StreamCut> cut = stream::MakeStreamCut(in.ctx, cut_options);
  if (!cut.ok()) return cut.status();
  stream::StreamSessionOptions session_options;
  session_options.config = config;
  session_options.dir = state_dir;
  session_options.batch_size = kBatchSize;
  {
    Span span("stream.open");
    Result<std::unique_ptr<stream::StreamSession>> session =
        stream::StreamSession::Open(in.ctx, *cut, session_options);
    if (!session.ok()) return session.status();
    in.session = std::move(*session);
  }
  in.options.primary = config;
  in.options.top_k = kTopK;
  in.options.score_threads = 1;
  in.options.score_cache_capacity = kScoreCacheCapacity;
  stream::LiveRecommender::Options live_options;
  live_options.serving = in.options;
  live_options.num_shards = kWorkers;
  in.live = std::make_shared<stream::LiveRecommender>(in.ctx, live_options);
  in.initial_train = in.session->CopyTrainSets();
  {
    Span span("stream.publish");
    MICROREC_RETURN_IF_ERROR(in.live->Publish(
        in.session->checkpoint_snapshot_path(), in.session->epoch(),
        in.initial_train));
  }
  *warmup = PhaseResult{};
  warmup->name = "warm-up";
  for (size_t r = 0; r < in.query_users.size(); ++r) {
    Account(Read(in.live.get(), in, Request{kWarmupIds + r, 0.0, r}), warmup);
    ++warmup->due;
  }
  warmup->sent = warmup->due;
  return in;
}

struct Writer {
  uint64_t batches = 0;
  uint64_t tweets = 0;
  uint64_t epochs = 0;
  double seconds = 0.0;
  uint64_t wal_bytes = 0;  // traced runs only: WAL size at each checkpoint
  std::vector<double> freshness_s;  // per batch
  Status status;
};

// Drains the stream until it is empty or `deadline` passes: IngestNext per
// batch; Checkpoint then Publish every kCheckpointEvery batches and at the
// end. A batch is fresh once the epoch containing it serves.
Writer DrainStream(Ingest* in, Clock::time_point deadline) {
  Writer w;
  const Clock::time_point start = Clock::now();
  std::vector<Clock::time_point> pending;
  auto publish = [&]() -> Status {
    // Checkpoint prunes the WAL, so its size now is what the batches since
    // the last checkpoint appended.
    if (Tracer::Get().enabled()) {
      w.wal_bytes += DiskBytes(in->state_dir + "/wal");
    }
    {
      Span span("stream.checkpoint");
      MICROREC_RETURN_IF_ERROR(in->session->Checkpoint());
    }
    {
      Span span("stream.publish");
      MICROREC_RETURN_IF_ERROR(Publish(*in, in->live.get()));
    }
    const Clock::time_point served = Clock::now();
    for (Clock::time_point called : pending) {
      w.freshness_s.push_back(
          std::chrono::duration<double>(served - called).count());
    }
    pending.clear();
    ++w.epochs;
    return Status::OK();
  };
  while (Clock::now() < deadline) {
    const Clock::time_point called = Clock::now();
    Result<uint64_t> applied = Status::Internal("unset");
    {
      Span span("stream.ingest_next");
      applied = in->session->IngestNext();
    }
    if (!applied.ok()) {
      w.status = applied.status();
      break;
    }
    if (*applied == 0) break;
    ++w.batches;
    w.tweets += *applied;
    pending.push_back(called);
    if (pending.size() == kCheckpointEvery) {
      if (Status st = publish(); !st.ok()) {
        w.status = st;
        break;
      }
    }
  }
  if (w.status.ok() && !pending.empty()) w.status = publish();
  w.seconds = SecondsSince(start);
  return w;
}

// Serves `schedule` in order on one thread against a single-shard live
// recommender holding only the pre-ingest epoch (see ReplaySchedule).
Result<Replay> ReplayWithoutIngest(const Ingest& in,
                                   const std::string& snapshot,
                                   const std::vector<Request>& schedule,
                                   bool traced) {
  stream::LiveRecommender::Options live_options;
  live_options.serving = in.options;
  live_options.num_shards = 1;
  stream::LiveRecommender live(in.ctx, live_options);
  {
    // Publish builds the epoch and warms its recommender from the snapshot.
    Span span("snapshot.warm");
    MICROREC_RETURN_IF_ERROR(live.Publish(snapshot, 1, in.initial_train));
  }
  return ReplaySchedule(
      schedule, traced,
      [&](const Request& request, microrec::obs::RequestTrace* trace) {
        return Read(&live, in, request, trace);
      });
}

}  // namespace

Status RunServeIngest(const Args& args, Outcome* out) {
  Result<rec::ModelConfig> config =
      DefaultConfig(rec::ModelKind::kTN, corpus::Source::kR);
  if (!config.ok()) return config.status();

  // Each repetition is a timed set-up on a fresh state directory followed
  // by a measured phase: open-loop reads while the writer drains the
  // stream, for at most --seconds / kSetupRepeats. The phase ends when the
  // stream is drained.
  std::vector<double> setups;
  std::vector<double> read_latency;
  std::vector<double> freshness_s;
  double writer_tweets = 0.0, writer_s = 0.0;
  Ingest in;
  PhaseResult warmup, reads;
  std::vector<Request> schedule;
  std::string initial_snapshot;
  const double phase_limit_s = args.seconds / kSetupRepeats;
  for (int k = 0; k < kSetupRepeats; ++k) {
    in = Ingest{};
    const std::string dir = args.work_dir + "/stream-" + std::to_string(k);
    const Clock::time_point start = Clock::now();
    Result<Ingest> built = BuildIngest(args, *config, dir, &warmup);
    if (!built.ok()) return built.status();
    in = std::move(*built);
    setups.push_back(SecondsSince(start));
    std::fprintf(stderr, "set-up %d: %.3f s, %llu stream batches; %s\n", k + 1,
                 setups.back(),
                 static_cast<unsigned long long>(in.session->total_batches()),
                 warmup.Summary().c_str());
    // The pre-ingest epoch's snapshot, kept for the replay (checkpoints
    // remove superseded snapshots).
    initial_snapshot = dir + "-initial.snap";
    std::filesystem::copy_file(in.session->checkpoint_snapshot_path(),
                               initial_snapshot);

    std::mt19937_64 rng(args.seed);
    schedule =
        MakeSchedule(&rng, kReadRate, phase_limit_s, in.query_users.size(), 1);
    Writer writer;
    const Clock::time_point phase_end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(phase_limit_s));
    reads = RunOpenLoop(
        "reads@" + std::to_string(static_cast<int>(kReadRate)) + "/s",
        schedule, kWorkers,
        [&](size_t, const Request& request) {
          return Read(in.live.get(), in, request);
        },
        [&] { writer = DrainStream(&in, phase_end); });
    std::fprintf(stderr, "%s\n", reads.Summary().c_str());
    schedule.resize(reads.due);
    std::fprintf(stderr,
                 "writer: %llu batches, %llu tweets, %llu epochs in %.3f s; "
                 "freshness p50 %.3f s%s%s\n",
                 static_cast<unsigned long long>(writer.batches),
                 static_cast<unsigned long long>(writer.tweets),
                 static_cast<unsigned long long>(writer.epochs),
                 writer.seconds, Median(writer.freshness_s),
                 writer.status.ok() ? "" : "; error: ",
                 writer.status.ok() ? "" : writer.status.ToString().c_str());

    Result<Replay> replay =
        ReplayWithoutIngest(in, initial_snapshot, schedule, false);
    if (!replay.ok()) return replay.status();
    out->Gate(writer.status.ok() && writer.tweets > 0,
              "the writer applied stream batches without error");
    out->Gate(reads.sent == reads.due, "every read was sent");
    out->Gate(replay->fingerprint == reads.fingerprint,
              "rankings fingerprint under ingest equals a replay without "
              "ingest");
    out->attempted += reads.sent + writer.batches;
    out->failed +=
        reads.failed + reads.degraded + (writer.status.ok() ? 0 : 1);

    read_latency.insert(read_latency.end(), reads.latency_ms.begin(),
                        reads.latency_ms.end());
    writer_tweets += static_cast<double>(writer.tweets);
    writer_s += writer.seconds;
    freshness_s.insert(freshness_s.end(), writer.freshness_s.begin(),
                       writer.freshness_s.end());
  }

  // Read latency pooled over all phases; writer throughput over all phases:
  // tweets applied over the writer's summed wall time.
  const int tail = TailPercentile(read_latency.size());
  out->Set("setup_s", Median(setups), "s");
  out->Set("p50_ms", Median(read_latency), "ms");
  out->Set("bench.tail_ms", Percentile(read_latency, tail), "ms");
  out->Set("throughput_per_s", writer_tweets / writer_s, "1/s");
  out->Set("peak_rss_mb", PeakRssMb(), "MB");
  out->Set("stream.freshness_s", Median(freshness_s), "s");
  std::fprintf(stderr,
               "reads: p50 and p%d over %zu requests\n", tail,
               read_latency.size());
  if (!args.trace) return Status::OK();

  // Traced run: a cold set-up, the read replay and a drain of the stream,
  // each through the public calls.
  out->Set("bench.queue_wait_ms", Percentile(reads.queue_wait_ms, 99), "ms");
  out->Set("bench.sched_lag_ms", Percentile(reads.sched_lag_ms, 99), "ms");
  in = Ingest{};
  Tracer::Get().SetEnabled(true);
  Ingest traced;
  const std::string traced_dir = args.work_dir + "/stream-traced";
  {
    Span root("bench.traced_setup");
    Result<Ingest> built = BuildIngest(args, *config, traced_dir, &warmup);
    if (!built.ok()) return built.status();
    traced = std::move(*built);
    Span span("snapshot.save");
    MICROREC_RETURN_IF_ERROR(traced.session->engine()->SaveSnapshot(
        args.work_dir + "/resaved.snap", traced.session->ctx()));
  }
  // The same replay untraced, just before the traced one, for the overhead.
  Tracer::Get().SetEnabled(false);
  Result<Replay> plain_replay =
      ReplayWithoutIngest(traced, initial_snapshot, schedule, false);
  if (!plain_replay.ok()) return plain_replay.status();
  Tracer::Get().SetEnabled(true);
  const RankCounters before = RankCounters::Read();
  Result<Replay> traced_replay = Status::Internal("unset");
  {
    Span root("bench.traced_replay");
    traced_replay = ReplayWithoutIngest(traced, initial_snapshot, schedule, true);
  }
  if (!traced_replay.ok()) return traced_replay.status();
  const RankCounters counters = RankCounters::Read().Since(before);
  Writer traced_writer;
  {
    Span root("bench.traced_ingest");
    traced_writer = DrainStream(
        &traced, Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(phase_limit_s)));
  }
  TokenizeProbe(*traced.stack->corpus, out);
  Tracer::Get().SetEnabled(false);
  out->Gate(traced_writer.status.ok(), "the traced writer applied its batches");
  out->Gate(traced_replay->fingerprint == reads.fingerprint,
            "traced replay rankings fingerprint equals the reads under ingest");

  const std::vector<SpanRecord> spans = Tracer::Get().Spans();
  for (const char* name :
       {"stream.ingest_next", "stream.checkpoint", "stream.publish"}) {
    out->Set(std::string(name) + "_ms", Mean(SpanMs(spans, name)), "ms");
  }
  out->Set("stream.wal_bytes", static_cast<double>(traced_writer.wal_bytes),
           "bytes");
  out->Set("snapshot.bytes",
           static_cast<double>(
               DiskBytes(traced.session->checkpoint_snapshot_path())),
           "bytes");
  ReportServingLayers(spans, counters, *plain_replay, *traced_replay,
                      schedule.size(), out);
  return Status::OK();
}

}  // namespace perfbench
