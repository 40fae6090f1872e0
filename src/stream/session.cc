#include "stream/session.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/metrics.h"
#include "resilience/fault.h"
#include "util/fs.h"

namespace microrec::stream {
namespace {

namespace fs = std::filesystem;

constexpr char kCurrentName[] = "CURRENT";

obs::Counter* BatchCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("stream.ingest.batches");
  return counter;
}

obs::Counter* TweetCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("stream.ingest.tweets");
  return counter;
}

obs::Counter* CheckpointCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("stream.checkpoints");
  return counter;
}

obs::Counter* SkippedCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "stream.ingest.skipped_batches");
  return counter;
}

std::string SnapshotFileName(uint64_t batch_id) {
  return "state-" + std::to_string(batch_id) + ".snap";
}

}  // namespace

Result<StreamCut> MakeStreamCut(const rec::EngineContext& ctx,
                                const StreamCutOptions& options) {
  if (ctx.pre == nullptr || ctx.users == nullptr || !ctx.train_set) {
    return Status::InvalidArgument(
        "stream cut: ctx needs pre, users and train_set");
  }
  const corpus::Corpus& corpus = ctx.pre->corpus();
  std::unordered_set<corpus::UserId> cohort(ctx.users->begin(),
                                            ctx.users->end());
  std::unordered_set<corpus::UserId> streaming;
  if (options.stream_users.empty()) {
    streaming = cohort;
  } else {
    for (corpus::UserId u : options.stream_users) {
      if (cohort.count(u) == 0) {
        return Status::InvalidArgument("stream cut: stream user " +
                                       std::to_string(u) +
                                       " is not in the cohort");
      }
      streaming.insert(u);
    }
  }

  // The cut time is the cut_fraction quantile of the stream users' pooled
  // train-doc timestamps: docs strictly before it stay in the base.
  std::vector<corpus::Timestamp> times;
  for (corpus::UserId u : *ctx.users) {
    if (streaming.count(u) == 0) continue;
    for (corpus::TweetId id : ctx.train_set(u).docs) {
      times.push_back(corpus.tweet(id).time);
    }
  }
  StreamCut cut;
  if (times.empty()) {
    for (corpus::UserId u : *ctx.users) cut.base[u] = ctx.train_set(u);
    return cut;
  }
  std::sort(times.begin(), times.end());
  const double fraction = std::clamp(options.cut_fraction, 0.0, 1.0);
  const size_t index = static_cast<size_t>(
      static_cast<double>(times.size()) * fraction);
  cut.cut_time =
      index >= times.size() ? times.back() + 1 : times[index];

  for (corpus::UserId u : *ctx.users) {
    const corpus::LabeledTrainSet& full = ctx.train_set(u);
    if (streaming.count(u) == 0) {
      cut.base[u] = full;
      continue;
    }
    corpus::LabeledTrainSet base_set;
    for (size_t i = 0; i < full.docs.size(); ++i) {
      const corpus::TweetId id = full.docs[i];
      if (corpus.tweet(id).time < cut.cut_time) {
        base_set.docs.push_back(id);
        base_set.positive.push_back(full.positive[i]);
        continue;
      }
      std::vector<StreamMembership>& members = cut.membership[id];
      bool seen = false;
      for (const StreamMembership& m : members) seen |= m.user == u;
      if (!seen) members.push_back({u, full.positive[i]});
    }
    cut.base[u] = std::move(base_set);
  }

  cut.stream.reserve(cut.membership.size());
  for (const auto& [id, members] : cut.membership) {
    const corpus::Tweet& tweet = corpus.tweet(id);
    StreamTweet out;
    out.id = tweet.id;
    out.author = tweet.author;
    out.time = tweet.time;
    out.retweet_of = tweet.retweet_of;
    out.retweet_of_user = tweet.retweet_of_user;
    out.text = tweet.text;
    cut.stream.push_back(std::move(out));
  }
  std::sort(cut.stream.begin(), cut.stream.end(),
            [](const StreamTweet& a, const StreamTweet& b) {
              return a.time != b.time ? a.time < b.time : a.id < b.id;
            });
  return cut;
}

std::vector<TweetBatch> MakeBatches(const StreamCut& cut, size_t batch_size,
                                    uint64_t first_batch_id) {
  std::vector<TweetBatch> batches;
  if (batch_size == 0) batch_size = 1;
  for (size_t at = 0; at < cut.stream.size(); at += batch_size) {
    TweetBatch batch;
    batch.batch_id = first_batch_id + batches.size();
    const size_t end = std::min(at + batch_size, cut.stream.size());
    batch.tweets.assign(cut.stream.begin() + at, cut.stream.begin() + end);
    batches.push_back(std::move(batch));
  }
  return batches;
}

Result<std::unique_ptr<StreamSession>> StreamSession::Open(
    const rec::EngineContext& base_ctx, const StreamCut& cut,
    const StreamSessionOptions& options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("stream session: dir must be set");
  }
  if (base_ctx.pre == nullptr || base_ctx.users == nullptr) {
    return Status::InvalidArgument(
        "stream session: ctx needs pre and users");
  }
  std::unique_ptr<StreamSession> session(new StreamSession());
  session->options_ = options;
  if (session->options_.batch_size == 0) session->options_.batch_size = 1;
  session->ctx_ = base_ctx;
  session->ctx_.warm_start_snapshot.clear();
  // Rebind the train-set accessor to the session's live extended sets;
  // the unique_ptr pins the session's address, so capturing the raw
  // pointer is stable for the session's lifetime.
  StreamSession* raw = session.get();
  session->ctx_.train_set =
      [raw](corpus::UserId u) -> const corpus::LabeledTrainSet& {
    return raw->train_.at(u);
  };
  session->wal_dir_ = options.dir + "/wal";
  MICROREC_RETURN_IF_ERROR(util::EnsureDirectory(options.dir));
  MICROREC_RETURN_IF_ERROR(util::EnsureDirectory(session->wal_dir_));
  session->batches_ = MakeBatches(cut, session->options_.batch_size);
  session->membership_ = cut.membership;
  MICROREC_RETURN_IF_ERROR(session->Recover(cut));
  return session;
}

Status StreamSession::Recover(const StreamCut& cut) {
  // 1. CURRENT names the last durable snapshot, or is absent on a cold
  //    start. A present-but-unreadable CURRENT is DataLoss: silently
  //    retraining over a damaged state directory could serve a model that
  //    diverges from what was acknowledged.
  const std::string current_path = options_.dir + "/" + kCurrentName;
  bool have_current = false;
  std::string snap_name;
  uint64_t durable_batch = 0;
  uint64_t durable_epoch = 0;
  if (fs::exists(current_path)) {
    std::ifstream in(current_path);
    std::string line;
    std::getline(in, line);
    std::istringstream fields(line);
    if (!(fields >> snap_name >> durable_batch >> durable_epoch) ||
        snap_name.empty()) {
      return Status::DataLoss(current_path + ": unparseable CURRENT record '" +
                              line + "'");
    }
    have_current = true;
  }
  if (durable_batch > batches_.size()) {
    return Status::DataLoss(
        current_path + ": names batch " + std::to_string(durable_batch) +
        " beyond the cut's " + std::to_string(batches_.size()) + " batches");
  }

  // 2. Train sets: base, then the deterministic re-derivation of every
  //    batch the snapshot already covers (those WAL segments may be
  //    pruned; the cut regenerates them bit-for-bit).
  train_ = cut.base;
  present_.clear();
  for (const auto& [u, set] : train_) {
    present_[u].insert(set.docs.begin(), set.docs.end());
  }
  frontier_ = cut.cut_time;
  for (uint64_t id = 1; id <= durable_batch; ++id) {
    MICROREC_RETURN_IF_ERROR(ApplyTrainOnly(batches_[id - 1]));
  }
  last_applied_ = durable_batch;
  last_checkpoint_ = durable_batch;
  epoch_ = durable_epoch;

  // 3. Engine: load the durable snapshot, or cold-train the base.
  engine_ = rec::MakeEngine(options_.config);
  if (have_current) {
    MICROREC_RETURN_IF_ERROR(
        engine_->LoadSnapshot(options_.dir + "/" + snap_name, ctx_));
  } else {
    MICROREC_RETURN_IF_ERROR(engine_->Prepare(ctx_));
    for (corpus::UserId u : *ctx_.users) {
      MICROREC_RETURN_IF_ERROR(engine_->BuildUser(u, train_.at(u), ctx_));
    }
  }

  // 4. Replay WAL batches past the snapshot; records at or below it are
  //    the idempotence path (their segments just weren't pruned yet).
  auto handler = [this](std::string_view payload,
                        const snapshot::WalRecordRef& ref) -> Status {
    Result<DecodedWalRecord> decoded =
        DecodeWalRecord(payload, ref.offset + 8, *ref.file);
    if (!decoded.ok()) return decoded.status();
    if (decoded->type == kWalRecordCheckpoint) return Status::OK();
    const uint64_t id = decoded->batch.batch_id;
    if (id <= last_applied_) {
      SkippedCounter()->Increment();
      return Status::OK();
    }
    if (id != last_applied_ + 1) {
      return Status::DataLoss(
          *ref.file + ":offset " + std::to_string(ref.offset) +
          ": batch gap (log has " + std::to_string(id) + ", expected " +
          std::to_string(last_applied_ + 1) + ")");
    }
    return Apply(decoded->batch);
  };
  Result<snapshot::WalReplayStats> replay =
      snapshot::ReplayWal(wal_dir_, handler);
  if (!replay.ok()) return replay.status();

  // 5. Appends resume in a fresh segment above everything replayed.
  Result<std::unique_ptr<snapshot::WalWriter>> wal =
      snapshot::WalWriter::Open(wal_dir_);
  if (!wal.ok()) return wal.status();
  wal_ = std::move(*wal);

  // 6. A cold start checkpoints immediately so recovery always has a
  //    snapshot to stand on.
  if (!have_current) MICROREC_RETURN_IF_ERROR(Checkpoint());
  return Status::OK();
}

Status StreamSession::ApplyTweetToTrain(const StreamTweet& tweet,
                                        std::vector<corpus::UserId>* dirty) {
  auto members = membership_.find(tweet.id);
  if (members == membership_.end()) {
    return Status::DataLoss("stream apply: tweet " + std::to_string(tweet.id) +
                            " is not part of the stream cut");
  }
  for (const StreamMembership& m : members->second) {
    if (!present_[m.user].insert(tweet.id).second) continue;
    corpus::LabeledTrainSet& set = train_[m.user];
    set.docs.push_back(tweet.id);
    set.positive.push_back(m.positive);
    if (dirty != nullptr) dirty->push_back(m.user);
  }
  if (tweet.time > frontier_) frontier_ = tweet.time;
  return Status::OK();
}

Status StreamSession::Apply(const TweetBatch& batch) {
  std::vector<corpus::UserId> dirty;
  for (const StreamTweet& tweet : batch.tweets) {
    MICROREC_FAULT_POINT(resilience::kSiteStreamApply);
    MICROREC_RETURN_IF_ERROR(ApplyTweetToTrain(tweet, &dirty));
  }
  // Ascending-user-id rebuild order keeps fold-in inference (which
  // advances the topic engines' generator) deterministic across the
  // original run and every replay.
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  for (corpus::UserId u : dirty) {
    engine_->InvalidateUser(u);
    MICROREC_RETURN_IF_ERROR(engine_->BuildUser(u, train_.at(u), ctx_));
  }
  last_applied_ = batch.batch_id;
  BatchCounter()->Increment();
  TweetCounter()->Add(batch.tweets.size());
  return Status::OK();
}

Status StreamSession::ApplyTrainOnly(const TweetBatch& batch) {
  for (const StreamTweet& tweet : batch.tweets) {
    MICROREC_RETURN_IF_ERROR(ApplyTweetToTrain(tweet, nullptr));
  }
  return Status::OK();
}

Result<uint64_t> StreamSession::IngestNext() {
  if (last_applied_ >= batches_.size()) return static_cast<uint64_t>(0);
  const TweetBatch& batch = batches_[last_applied_];
  MICROREC_RETURN_IF_ERROR(wal_->Append(EncodeBatchRecord(batch)));
  MICROREC_RETURN_IF_ERROR(Apply(batch));
  ++since_checkpoint_;
  if (options_.checkpoint_every > 0 &&
      since_checkpoint_ >= options_.checkpoint_every) {
    MICROREC_RETURN_IF_ERROR(Checkpoint());
  }
  return static_cast<uint64_t>(batch.tweets.size());
}

Status StreamSession::IngestAll() {
  while (last_applied_ < batches_.size()) {
    Result<uint64_t> applied = IngestNext();
    if (!applied.ok()) return applied.status();
  }
  return Status::OK();
}

Status StreamSession::Checkpoint() {
  const uint64_t durable_batch = last_applied_;
  const uint64_t next_epoch = epoch_ + 1;
  const std::string snap_name = SnapshotFileName(durable_batch);
  MICROREC_RETURN_IF_ERROR(
      engine_->SaveSnapshot(options_.dir + "/" + snap_name, ctx_));
  MICROREC_RETURN_IF_ERROR(
      wal_->Append(EncodeCheckpointRecord({durable_batch, next_epoch})));
  Result<uint64_t> sealed = wal_->Rotate();
  if (!sealed.ok()) return sealed.status();
  MICROREC_RETURN_IF_ERROR(WriteCurrentFile(durable_batch, next_epoch));
  // Everything sealed so far carries only batches <= durable_batch (the
  // rotation above closed the segment the checkpoint record landed in),
  // and the cut re-derives those on recovery: the sealed log is garbage.
  Result<size_t> pruned = snapshot::PruneWalSegments(wal_dir_, *sealed);
  if (!pruned.ok()) return pruned.status();
  // Stale snapshots are garbage too, but only after CURRENT moved on.
  std::error_code ec;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(options_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 11 && name.compare(0, 6, "state-") == 0 &&
        name.compare(name.size() - 5, 5, ".snap") == 0 && name != snap_name) {
      fs::remove(entry.path(), ec);
    }
  }
  epoch_ = next_epoch;
  last_checkpoint_ = durable_batch;
  since_checkpoint_ = 0;
  CheckpointCounter()->Increment();
  return Status::OK();
}

Status StreamSession::WriteCurrentFile(uint64_t batch_id,
                                       uint64_t epoch) const {
  const std::string path = options_.dir + "/" + kCurrentName;
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return Status::Internal("stream: cannot write " + tmp);
    out << SnapshotFileName(batch_id) << ' ' << batch_id << ' ' << epoch
        << '\n';
    out.flush();
    if (!out) return Status::Internal("stream: write failed for " + tmp);
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    return Status::Internal("stream: cannot publish " + path + ": " +
                            ec.message());
  }
  return Status::OK();
}

std::string StreamSession::checkpoint_snapshot_path() const {
  return options_.dir + "/" + SnapshotFileName(last_checkpoint_);
}

std::shared_ptr<
    const std::unordered_map<corpus::UserId, corpus::LabeledTrainSet>>
StreamSession::CopyTrainSets() const {
  return std::make_shared<
      const std::unordered_map<corpus::UserId, corpus::LabeledTrainSet>>(
      train_);
}

Result<std::string> StreamSession::StateBytes() const {
  const std::string probe = options_.dir + "/.state_probe.snap";
  MICROREC_RETURN_IF_ERROR(engine_->SaveSnapshot(probe, ctx_));
  std::ifstream in(probe, std::ios::binary);
  if (!in) return Status::Internal("stream: cannot reopen " + probe);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::error_code ec;
  fs::remove(probe, ec);
  return bytes;
}

}  // namespace microrec::stream
