// Crash-safe streaming ingest over a live engine (DESIGN.md §14).
//
// The experiment corpus is immutable, so "streaming" is staged: a *cut*
// partitions the stream users' training documents at a timestamp into a
// base set (what the engine trains on) and a stream (what arrives later,
// in timestamp order, as batches). A StreamSession owns the per-user
// extended train sets and a WAL-backed apply loop with the recovery
// invariant the kill-anywhere gate enforces:
//
//   snapshot(last checkpoint) + WAL replay  ==  uninterrupted run,
//   bit for bit — same engine state, same future rankings.
//
// Durability protocol (LevelDB's CURRENT discipline):
//   1. every batch is appended to the WAL before any in-memory mutation;
//   2. Checkpoint() atomically writes state-<B>.snap (Engine::SaveSnapshot
//      is tmp+rename), appends a checkpoint record, rotates the WAL
//      segment, then atomically rewrites CURRENT to name the snapshot;
//   3. only after CURRENT points past them are sealed segments pruned.
// Recovery reads CURRENT, re-derives pre-checkpoint train membership from
// the (deterministic) cut, loads the snapshot, replays WAL batches > B,
// and truncates any torn tail in the open segment. A missing CURRENT is a
// cold start; a corrupt one is DataLoss, never silent retraining.
//
// Batches apply idempotently (a re-offered batch id <= last_applied() is
// skipped) and contiguously (a gap is DataLoss: the log lost a record).
#ifndef MICROREC_STREAM_SESSION_H_
#define MICROREC_STREAM_SESSION_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "corpus/split.h"
#include "rec/engine.h"
#include "rec/model_config.h"
#include "snapshot/wal.h"
#include "stream/record.h"
#include "util/status.h"

namespace microrec::stream {

/// Which user gains which label when a stream tweet arrives.
struct StreamMembership {
  corpus::UserId user = corpus::kInvalidUser;
  bool positive = false;
};

/// The time-horizon partition of a cohort's training data.
struct StreamCut {
  corpus::Timestamp cut_time = 0;
  /// Stream arrivals, (time, id) ascending.
  std::vector<StreamTweet> stream;
  /// tweet id -> the users whose train sets gain it, in cohort order.
  std::unordered_map<corpus::TweetId, std::vector<StreamMembership>>
      membership;
  /// Per-user base train sets (pre-cut docs; non-stream users keep their
  /// full sets).
  std::unordered_map<corpus::UserId, corpus::LabeledTrainSet> base;
};

struct StreamCutOptions {
  /// Fraction of the stream users' pooled train docs (by time order) kept
  /// in the base; the rest arrives as the stream. Clamped to [0, 1].
  double cut_fraction = 0.5;
  /// Users whose train sets are cut; empty = every cohort user. The
  /// serving-under-rotation gate passes a subset disjoint from its query
  /// cohort so rankings are provably rotation-invariant.
  std::vector<corpus::UserId> stream_users;
};

/// Builds the cut from `ctx`'s users and train sets. Pure: same ctx and
/// options, same cut.
Result<StreamCut> MakeStreamCut(const rec::EngineContext& ctx,
                                const StreamCutOptions& options);

/// Chunks the cut's stream into contiguous batches of `batch_size` tweets
/// with ids counting from `first_batch_id`.
std::vector<TweetBatch> MakeBatches(const StreamCut& cut, size_t batch_size,
                                    uint64_t first_batch_id = 1);

struct StreamSessionOptions {
  rec::ModelConfig config;
  /// State directory: state-<B>.snap + CURRENT, with the WAL under
  /// `<dir>/wal`.
  std::string dir;
  /// Tweets per batch for the session's own batching of the cut.
  size_t batch_size = 8;
  /// Auto-checkpoint after this many applied batches; 0 = manual only.
  size_t checkpoint_every = 0;
};

/// One crash-safe ingest session. Not thread-safe; `base_ctx.pre`,
/// `base_ctx.users` and the corpus they reference must outlive it. After
/// any non-OK Ingest*/Checkpoint the in-memory state may be half-mutated:
/// discard the session and Open() again — that is the recovery path, and
/// it must land on the exact uninterrupted state.
class StreamSession {
 public:
  static Result<std::unique_ptr<StreamSession>> Open(
      const rec::EngineContext& base_ctx, const StreamCut& cut,
      const StreamSessionOptions& options);

  StreamSession(const StreamSession&) = delete;
  StreamSession& operator=(const StreamSession&) = delete;

  /// Ingests the next pending batch (WAL append, then apply, then maybe
  /// auto-checkpoint). Returns the tweets applied; 0 when the stream is
  /// drained. Fault sites: `wal.append`, `stream.apply`.
  Result<uint64_t> IngestNext();

  /// Drains the stream.
  Status IngestAll();

  /// Makes everything applied so far durable (see the protocol above).
  Status Checkpoint();

  uint64_t last_applied() const { return last_applied_; }
  uint64_t last_checkpoint() const { return last_checkpoint_; }
  uint64_t total_batches() const { return batches_.size(); }
  uint64_t remaining_batches() const {
    return batches_.size() - last_applied_;
  }
  /// Monotone epoch, bumped by every successful Checkpoint(); the live
  /// publish protocol uses it as the epoch id.
  uint64_t epoch() const { return epoch_; }
  /// Largest tweet timestamp applied (the cut time before any batch) —
  /// the prequential staleness axis.
  corpus::Timestamp frontier_time() const { return frontier_; }

  /// Path of the last durable snapshot (what CURRENT names).
  std::string checkpoint_snapshot_path() const;

  rec::Engine* engine() { return engine_.get(); }
  /// The session's context: base_ctx with train_set rebound to the live
  /// extended sets.
  const rec::EngineContext& ctx() const { return ctx_; }
  const corpus::LabeledTrainSet& TrainSetOf(corpus::UserId u) const {
    return train_.at(u);
  }

  /// Immutable copy of the live train sets for an epoch's query context:
  /// queries served off an epoch must never race the session's mutating
  /// maps, so each published epoch owns its own frozen view.
  std::shared_ptr<
      const std::unordered_map<corpus::UserId, corpus::LabeledTrainSet>>
  CopyTrainSets() const;

  /// Serialized engine snapshot of the current in-memory state (written
  /// to a scratch file, read back, removed) — the bit-identity hook the
  /// recovery gates compare across interrupted and clean runs.
  Result<std::string> StateBytes() const;

 private:
  StreamSession() = default;

  Status Recover(const StreamCut& cut);
  /// Extends train sets with one tweet; records newly dirtied users.
  Status ApplyTweetToTrain(const StreamTweet& tweet,
                           std::vector<corpus::UserId>* dirty);
  /// Full apply: train sets + engine rebuilds of dirtied users.
  Status Apply(const TweetBatch& batch);
  /// Train-set-only apply, for re-deriving pre-checkpoint membership.
  Status ApplyTrainOnly(const TweetBatch& batch);
  Status WriteCurrentFile(uint64_t batch_id, uint64_t epoch) const;

  rec::EngineContext ctx_;
  StreamSessionOptions options_;
  std::string wal_dir_;
  std::vector<TweetBatch> batches_;
  std::unordered_map<corpus::TweetId, std::vector<StreamMembership>>
      membership_;
  std::unordered_map<corpus::UserId, corpus::LabeledTrainSet> train_;
  /// Per-user docs already present, to make re-applied tweets no-ops.
  std::unordered_map<corpus::UserId, std::unordered_set<corpus::TweetId>>
      present_;
  std::unique_ptr<rec::Engine> engine_;
  std::unique_ptr<snapshot::WalWriter> wal_;
  uint64_t last_applied_ = 0;
  uint64_t last_checkpoint_ = 0;
  uint64_t epoch_ = 0;
  uint64_t since_checkpoint_ = 0;
  corpus::Timestamp frontier_ = 0;
};

}  // namespace microrec::stream

#endif  // MICROREC_STREAM_SESSION_H_
