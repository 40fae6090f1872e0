// The crash-safe ingest session: cut construction, the recovery contract
// (kill at any fault site, reopen, land bit-identical to an uninterrupted
// run), checkpoint pruning, idempotent re-offers, batch-gap detection and
// the CURRENT-file discipline.
#include "stream/session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "snapshot/format.h"
#include "stream_fixture.h"

namespace microrec::stream {
namespace {

namespace fs = std::filesystem;

using SessionFixture = StreamFixture;

/// Drains a fresh session in `dir` with no interference and returns its
/// final serialized engine state.
std::string CleanRunBytes(StreamFixture* f, const rec::ModelConfig& config,
                          const StreamCut& cut, const std::string& dir,
                          size_t checkpoint_every = 0) {
  Result<std::unique_ptr<StreamSession>> session = StreamSession::Open(
      f->ctx_, cut, f->SessionOptions(config, dir, 2, checkpoint_every));
  EXPECT_TRUE(session.ok()) << session.status().message();
  EXPECT_OK((*session)->IngestAll());
  Result<std::string> bytes = (*session)->StateBytes();
  EXPECT_TRUE(bytes.ok()) << bytes.status().message();
  return *bytes;
}

TEST_F(SessionFixture, CutPartitionsTrainDocsByTime) {
  Result<StreamCut> cut = Cut(0.5);
  ASSERT_TRUE(cut.ok()) << cut.status().message();
  EXPECT_GT(cut->cut_time, 0);
  ASSERT_FALSE(cut->stream.empty());
  // Base docs are strictly pre-cut; stream docs are at or past the cut.
  for (const auto& [u, set] : cut->base) {
    for (corpus::TweetId id : set.docs) {
      EXPECT_LT(world_.tweet(id).time, cut->cut_time);
    }
  }
  corpus::Timestamp prev = 0;
  for (const StreamTweet& tweet : cut->stream) {
    EXPECT_GE(tweet.time, cut->cut_time);
    EXPECT_GE(tweet.time, prev);  // arrival order is time order
    prev = tweet.time;
    EXPECT_EQ(cut->membership.count(tweet.id), 1u);
  }
  // Nothing is lost: base + stream memberships reconstruct the full sets.
  size_t stream_memberships = 0;
  for (const auto& [id, members] : cut->membership) {
    stream_memberships += members.size();
  }
  size_t base_docs = 0;
  for (const auto& [u, set] : cut->base) base_docs += set.docs.size();
  EXPECT_EQ(base_docs + stream_memberships,
            train_.docs.size() + rival_train_.docs.size());
}

TEST_F(SessionFixture, StreamUserSubsetLeavesOthersUncut) {
  Result<StreamCut> cut = Cut(0.5, {rival_});
  ASSERT_TRUE(cut.ok()) << cut.status().message();
  // Ego is not a stream user: its base set is the full train set.
  EXPECT_EQ(cut->base.at(ego_).docs, train_.docs);
  for (const StreamTweet& tweet : cut->stream) {
    for (const StreamMembership& m : cut->membership.at(tweet.id)) {
      EXPECT_EQ(m.user, rival_);
    }
  }
  // A stream user outside the cohort is rejected.
  Result<StreamCut> bad = Cut(0.5, {cats_});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SessionFixture, ColdOpenCheckpointsImmediately) {
  Result<StreamCut> cut = Cut(0.5);
  ASSERT_OK(cut);
  const std::string dir = NewDir("cold");
  Result<std::unique_ptr<StreamSession>> session =
      StreamSession::Open(ctx_, *cut, SessionOptions(TnConfig(), dir));
  ASSERT_TRUE(session.ok()) << session.status().message();
  EXPECT_EQ((*session)->last_applied(), 0u);
  EXPECT_EQ((*session)->last_checkpoint(), 0u);
  EXPECT_EQ((*session)->epoch(), 1u);
  EXPECT_GT((*session)->total_batches(), 2u);
  EXPECT_EQ((*session)->frontier_time(), cut->cut_time);
  EXPECT_TRUE(fs::exists(dir + "/CURRENT"));
  EXPECT_TRUE(fs::exists((*session)->checkpoint_snapshot_path()));
}

TEST_F(SessionFixture, IngestAllExtendsTrainSetsToTheFullSplit) {
  Result<StreamCut> cut = Cut(0.5);
  ASSERT_OK(cut);
  Result<std::unique_ptr<StreamSession>> session = StreamSession::Open(
      ctx_, *cut, SessionOptions(TnConfig(), NewDir("drain")));
  ASSERT_OK(session);
  ASSERT_OK((*session)->IngestAll());
  EXPECT_EQ((*session)->remaining_batches(), 0u);
  // Every original doc is back, in deterministic (base ++ time) order.
  auto sorted = [](std::vector<corpus::TweetId> docs) {
    std::sort(docs.begin(), docs.end());
    return docs;
  };
  EXPECT_EQ(sorted((*session)->TrainSetOf(ego_).docs), sorted(train_.docs));
  EXPECT_EQ(sorted((*session)->TrainSetOf(rival_).docs),
            sorted(rival_train_.docs));
  // A drained IngestNext is a clean no-op.
  Result<uint64_t> extra = (*session)->IngestNext();
  ASSERT_OK(extra);
  EXPECT_EQ(*extra, 0u);
  EXPECT_GT((*session)->frontier_time(), cut->cut_time);
}

TEST_F(SessionFixture, ReopenAfterCleanRunIsBitIdentical) {
  Result<StreamCut> cut = Cut(0.5);
  ASSERT_OK(cut);
  const std::string dir = NewDir("reopen");
  const std::string clean = CleanRunBytes(this, TnConfig(), *cut, dir);
  // No checkpoint since the cold one: recovery = cold snapshot + full WAL
  // replay. The reopened session must land on the exact same bytes.
  Result<std::unique_ptr<StreamSession>> session =
      StreamSession::Open(ctx_, *cut, SessionOptions(TnConfig(), dir));
  ASSERT_TRUE(session.ok()) << session.status().message();
  EXPECT_EQ((*session)->remaining_batches(), 0u);
  Result<std::string> bytes = (*session)->StateBytes();
  ASSERT_OK(bytes);
  EXPECT_EQ(*bytes, clean);
}

/// The kill-anywhere gate in miniature: arm `site` to fail permanently
/// after `after_nth` hits, ingest until the session errors, then recover
/// into the same directory and drain. Final state must be bit-identical
/// to an uninterrupted run with the same config.
void KillRecoverCase(StreamFixture* f, const rec::ModelConfig& config,
                     std::string_view site, uint64_t after_nth,
                     size_t checkpoint_every) {
  SCOPED_TRACE(std::string(site) + " after " + std::to_string(after_nth) +
               " ckpt_every " + std::to_string(checkpoint_every));
  Result<StreamCut> cut = f->Cut(0.5);
  ASSERT_OK(cut);
  const std::string clean_dir =
      f->NewDir("clean_" + std::to_string(after_nth));
  const std::string clean =
      CleanRunBytes(f, config, *cut, clean_dir, checkpoint_every);

  const std::string dir = f->NewDir("killed_" + std::to_string(after_nth));
  {
    Result<std::unique_ptr<StreamSession>> session = StreamSession::Open(
        f->ctx_, *cut,
        f->SessionOptions(config, dir, 2, checkpoint_every));
    ASSERT_TRUE(session.ok()) << session.status().message();
    resilience::ArmFault(
        site, resilience::FaultSpec{.kill_after = true, .after_nth = after_nth},
        /*seed=*/3);
    Status drained = (*session)->IngestAll();
    ASSERT_FALSE(drained.ok()) << "fault never fired at " << site;
    // The dying process writes nothing more; the half-mutated session is
    // simply discarded (scope exit).
  }
  resilience::ClearFaults();

  Result<std::unique_ptr<StreamSession>> recovered = StreamSession::Open(
      f->ctx_, *cut, f->SessionOptions(config, dir, 2, checkpoint_every));
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  ASSERT_OK((*recovered)->IngestAll());
  Result<std::string> bytes = (*recovered)->StateBytes();
  ASSERT_OK(bytes);
  EXPECT_EQ(*bytes, clean) << "recovered state diverged from the clean run";
}

TEST_F(SessionFixture, KillDuringApplyRecoversBitIdentical) {
  for (uint64_t after_nth : {0u, 1u, 3u, 5u}) {
    KillRecoverCase(this, TnConfig(), resilience::kSiteStreamApply, after_nth,
                    /*checkpoint_every=*/0);
  }
}

TEST_F(SessionFixture, KillDuringAppendRecoversBitIdentical) {
  for (uint64_t after_nth : {0u, 1u, 2u}) {
    KillRecoverCase(this, TnConfig(), resilience::kSiteWalAppend, after_nth,
                    /*checkpoint_every=*/0);
  }
}

TEST_F(SessionFixture, KillBetweenCheckpointsRecoversBitIdentical) {
  // checkpoint_every=1 makes wal.append hits alternate between batch and
  // checkpoint records, so the kill lands mid-checkpoint too (snapshot
  // written, checkpoint record lost, CURRENT stale).
  for (uint64_t after_nth : {1u, 2u, 3u, 4u}) {
    KillRecoverCase(this, TnConfig(), resilience::kSiteWalAppend, after_nth,
                    /*checkpoint_every=*/1);
  }
}

TEST_F(SessionFixture, TopicEngineKillRecoverIsBitIdentical) {
  // LDA exercises the fold-in inference path: the rng stream and inference
  // cache are part of the snapshot, so replayed rebuilds must consume the
  // generator exactly as the original run did.
  KillRecoverCase(this, LdaConfig(), resilience::kSiteStreamApply,
                  /*after_nth=*/3, /*checkpoint_every=*/2);
}

TEST_F(SessionFixture, CheckpointPrunesWalAndStaleSnapshots) {
  Result<StreamCut> cut = Cut(0.5);
  ASSERT_OK(cut);
  const std::string dir = NewDir("prune");
  Result<std::unique_ptr<StreamSession>> session = StreamSession::Open(
      ctx_, *cut, SessionOptions(TnConfig(), dir, 2, /*checkpoint_every=*/2));
  ASSERT_OK(session);
  ASSERT_OK((*session)->IngestAll());
  ASSERT_OK((*session)->Checkpoint());
  // WAL: nothing sealed survives the checkpoint; only the open segment.
  Result<std::vector<WalSegmentInfo>> segments =
      ListWalSegments(dir + "/wal");
  ASSERT_OK(segments);
  ASSERT_EQ(segments->size(), 1u);
  EXPECT_FALSE((*segments)[0].sealed);
  // Snapshots: only the one CURRENT names.
  size_t snaps = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("state-", 0) == 0) {
      ++snaps;
      EXPECT_EQ(dir + "/" + name, (*session)->checkpoint_snapshot_path());
    }
  }
  EXPECT_EQ(snaps, 1u);
  EXPECT_EQ((*session)->last_checkpoint(), (*session)->total_batches());
}

TEST_F(SessionFixture, ReplayedOldBatchesAreSkippedIdempotently) {
  Result<StreamCut> cut = Cut(0.5);
  ASSERT_OK(cut);
  const std::string dir = NewDir("idem");
  std::string drained;
  {
    Result<std::unique_ptr<StreamSession>> session =
        StreamSession::Open(ctx_, *cut, SessionOptions(TnConfig(), dir));
    ASSERT_OK(session);
    ASSERT_OK((*session)->IngestAll());
    ASSERT_OK((*session)->Checkpoint());
    Result<std::string> bytes = (*session)->StateBytes();
    ASSERT_OK(bytes);
    drained = *bytes;
  }
  // Plant a stale sealed segment re-offering batch 1 — the shape a prune
  // that died half-way leaves behind. Recovery must skip it silently.
  const std::vector<TweetBatch> batches = MakeBatches(*cut, 2);
  ASSERT_FALSE(batches.empty());
  const std::string payload = EncodeBatchRecord(batches[0]);
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint32_t crc = snapshot::Crc32(payload);
  std::ofstream out(dir + "/wal/" + WalSegmentFileName(1, /*sealed=*/true),
                    std::ios::binary | std::ios::trunc);
  out.write(kWalMagic, kWalMagicSize);
  for (int i = 0; i < 4; ++i) {
    out.put(static_cast<char>((len >> (8 * i)) & 0xFF));
  }
  for (int i = 0; i < 4; ++i) {
    out.put(static_cast<char>((crc >> (8 * i)) & 0xFF));
  }
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  out.close();

  Result<std::unique_ptr<StreamSession>> reopened =
      StreamSession::Open(ctx_, *cut, SessionOptions(TnConfig(), dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ((*reopened)->remaining_batches(), 0u);
  Result<std::string> bytes = (*reopened)->StateBytes();
  ASSERT_OK(bytes);
  EXPECT_EQ(*bytes, drained);
}

TEST_F(SessionFixture, BatchGapInTheLogIsDataLoss) {
  Result<StreamCut> cut = Cut(0.5);
  ASSERT_OK(cut);
  const std::string dir = NewDir("gap");
  {
    Result<std::unique_ptr<StreamSession>> session =
        StreamSession::Open(ctx_, *cut, SessionOptions(TnConfig(), dir));
    ASSERT_OK(session);
  }
  // Plant a sealed segment whose first batch id jumps past the expected
  // next batch: the log lost a record, which recovery must refuse.
  const std::vector<TweetBatch> batches = MakeBatches(*cut, 2);
  ASSERT_GT(batches.size(), 2u);
  const std::string payload = EncodeBatchRecord(batches[2]);  // batch 3
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint32_t crc = snapshot::Crc32(payload);
  std::ofstream out(dir + "/wal/" + WalSegmentFileName(1, /*sealed=*/true),
                    std::ios::binary | std::ios::trunc);
  out.write(kWalMagic, kWalMagicSize);
  for (int i = 0; i < 4; ++i) {
    out.put(static_cast<char>((len >> (8 * i)) & 0xFF));
  }
  for (int i = 0; i < 4; ++i) {
    out.put(static_cast<char>((crc >> (8 * i)) & 0xFF));
  }
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  out.close();

  Result<std::unique_ptr<StreamSession>> reopened =
      StreamSession::Open(ctx_, *cut, SessionOptions(TnConfig(), dir));
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(reopened.status().message().find("batch gap"), std::string::npos)
      << reopened.status().message();
}

TEST_F(SessionFixture, CorruptCurrentFileIsDataLossNotSilentRetrain) {
  Result<StreamCut> cut = Cut(0.5);
  ASSERT_OK(cut);
  const std::string dir = NewDir("current");
  {
    Result<std::unique_ptr<StreamSession>> session =
        StreamSession::Open(ctx_, *cut, SessionOptions(TnConfig(), dir));
    ASSERT_OK(session);
  }
  {
    std::ofstream out(dir + "/CURRENT", std::ios::trunc);
    out << "???\n";
  }
  Result<std::unique_ptr<StreamSession>> reopened =
      StreamSession::Open(ctx_, *cut, SessionOptions(TnConfig(), dir));
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);

  // CURRENT naming a batch beyond the cut is equally fatal.
  {
    std::ofstream out(dir + "/CURRENT", std::ios::trunc);
    out << "state-999.snap 999 1\n";
  }
  reopened = StreamSession::Open(ctx_, *cut, SessionOptions(TnConfig(), dir));
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(reopened.status().message().find("beyond the cut"),
            std::string::npos)
      << reopened.status().message();
}

TEST_F(SessionFixture, MissingNamedSnapshotFailsRecovery) {
  Result<StreamCut> cut = Cut(0.5);
  ASSERT_OK(cut);
  const std::string dir = NewDir("nosnap");
  std::string snap_path;
  {
    Result<std::unique_ptr<StreamSession>> session =
        StreamSession::Open(ctx_, *cut, SessionOptions(TnConfig(), dir));
    ASSERT_OK(session);
    snap_path = (*session)->checkpoint_snapshot_path();
  }
  fs::remove(snap_path);
  Result<std::unique_ptr<StreamSession>> reopened =
      StreamSession::Open(ctx_, *cut, SessionOptions(TnConfig(), dir));
  // CURRENT promises a snapshot that is gone: recovery must fail rather
  // than silently cold-retrain.
  ASSERT_FALSE(reopened.ok());
}

}  // namespace
}  // namespace microrec::stream
