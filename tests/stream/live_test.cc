// Live epoch rotation: RCU slot flips under concurrent queries with zero
// errors and rotation-invariant rankings, failed publishes (bad snapshot,
// injected epoch.swap fault) leaving old epochs serving — including the
// legal mixed-epoch ring — and the LiveBackend ingest op.
#include "stream/live.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "load/serving_backend.h"
#include "stream_fixture.h"

namespace microrec::stream {
namespace {

using LiveFixture = StreamFixture;

/// A session streaming only rival's docs, so ego's rankings are provably
/// rotation-invariant, plus a LiveRecommender over its checkpoints.
struct LiveWorld {
  std::unique_ptr<StreamSession> session;
  std::shared_ptr<LiveRecommender> live;
};

LiveWorld MakeLiveWorld(StreamFixture* f, size_t num_shards,
                        const std::string& dir) {
  LiveWorld world;
  Result<StreamCut> cut = f->Cut(0.5, {f->rival_});
  EXPECT_TRUE(cut.ok()) << cut.status().message();
  Result<std::unique_ptr<StreamSession>> session = StreamSession::Open(
      f->ctx_, *cut, f->SessionOptions(StreamFixture::TnConfig(), dir));
  EXPECT_TRUE(session.ok()) << session.status().message();
  world.session = std::move(*session);

  LiveRecommender::Options options;
  options.serving.primary = StreamFixture::TnConfig();
  options.num_shards = num_shards;
  world.live = std::make_shared<LiveRecommender>(f->ctx_, options);
  return world;
}

Status PublishCurrent(LiveWorld* world) {
  return world->live->Publish(world->session->checkpoint_snapshot_path(),
                              world->session->epoch(),
                              world->session->CopyTrainSets());
}

TEST_F(LiveFixture, QueryBeforeFirstPublishIsFailedPrecondition) {
  LiveWorld world = MakeLiveWorld(this, 1, NewDir("unpublished"));
  rec::QueryOptions query;
  query.request_id = 1;
  Result<rec::RecommendResult> served =
      world.live->Recommend(ego_, {test_cat_, test_stock_}, query);
  ASSERT_FALSE(served.ok());
  EXPECT_EQ(served.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(world.live->EpochOf(0), 0u);
}

TEST_F(LiveFixture, PublishThenRecommendServesPrimary) {
  LiveWorld world = MakeLiveWorld(this, 1, NewDir("basic"));
  ASSERT_OK(PublishCurrent(&world));
  EXPECT_EQ(world.live->EpochOf(0), 1u);
  ASSERT_OK(world.live->Warm());

  rec::QueryOptions query;
  query.request_id = 7;
  int shard = -1;
  Result<rec::RecommendResult> served =
      world.live->Recommend(ego_, {test_stock_, test_cat_}, query, &shard);
  ASSERT_TRUE(served.ok()) << served.status().message();
  EXPECT_EQ(shard, 0);
  EXPECT_EQ(served->rung, rec::ServingRung::kPrimary);
  ASSERT_EQ(served->ranking.size(), 2u);
  EXPECT_EQ(served->ranking[0].tweet, test_cat_);  // ego likes cats

  Result<size_t> profile = world.live->ProfileLookup(ego_);
  ASSERT_TRUE(profile.ok()) << profile.status().message();
  EXPECT_GT(*profile, 0u);
}

TEST_F(LiveFixture, RotationKeepsDisjointUserRankingsStable) {
  LiveWorld world = MakeLiveWorld(this, 2, NewDir("stable"));
  ASSERT_OK(PublishCurrent(&world));
  rec::QueryOptions query;
  query.request_id = 42;
  Result<rec::RecommendResult> before =
      world.live->Recommend(ego_, {test_stock_, test_cat_}, query);
  ASSERT_OK(before);
  const uint64_t hash_before = load::RankingHash(before->ranking);

  // Stream a few rival batches through a checkpoint and republish.
  ASSERT_OK(world.session->IngestNext());
  ASSERT_OK(world.session->IngestNext());
  ASSERT_OK(world.session->Checkpoint());
  ASSERT_OK(PublishCurrent(&world));
  EXPECT_EQ(world.live->EpochOf(0), 2u);
  EXPECT_EQ(world.live->EpochOf(1), 2u);

  Result<rec::RecommendResult> after =
      world.live->Recommend(ego_, {test_stock_, test_cat_}, query);
  ASSERT_OK(after);
  // Ego is not a stream user: the same request id must hash identically
  // across epochs — the rotation-invariance property the load gate checks.
  EXPECT_EQ(load::RankingHash(after->ranking), hash_before);
}

TEST_F(LiveFixture, ConcurrentQueriesAcrossRotationsSeeZeroErrors) {
  LiveWorld world = MakeLiveWorld(this, 2, NewDir("concurrent"));
  ASSERT_OK(PublishCurrent(&world));
  rec::QueryOptions probe;
  probe.request_id = 99;
  Result<rec::RecommendResult> baseline =
      world.live->Recommend(ego_, {test_stock_, test_cat_}, probe);
  ASSERT_OK(baseline);
  const uint64_t expect_hash = load::RankingHash(baseline->ranking);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> queries{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c]() {
      rec::QueryOptions query;
      query.request_id = 99;  // fixed rid -> ranking is epoch-invariant
      const corpus::UserId u = c % 2 == 0 ? ego_ : rival_;
      while (!stop.load(std::memory_order_relaxed)) {
        Result<rec::RecommendResult> served =
            world.live->Recommend(u, {test_stock_, test_cat_}, query);
        if (!served.ok()) {
          errors.fetch_add(1);
        } else if (u == ego_ &&
                   load::RankingHash(served->ranking) != expect_hash) {
          mismatches.fetch_add(1);
        }
        queries.fetch_add(1);
      }
    });
  }
  // Rotate under load until the stream drains.
  while (world.session->remaining_batches() > 0) {
    Result<uint64_t> applied = world.session->IngestNext();
    ASSERT_TRUE(applied.ok()) << applied.status().message();
    ASSERT_OK(world.session->Checkpoint());
    ASSERT_OK(PublishCurrent(&world));
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();
  EXPECT_GT(queries.load(), 0u);
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(world.live->EpochOf(0), world.session->epoch());
}

TEST_F(LiveFixture, EpochSwapFaultLeavesMixedEpochsServing) {
  LiveWorld world = MakeLiveWorld(this, 2, NewDir("mixed"));
  ASSERT_OK(PublishCurrent(&world));
  ASSERT_EQ(world.live->EpochOf(0), 1u);
  ASSERT_EQ(world.live->EpochOf(1), 1u);

  ASSERT_OK(world.session->IngestNext());
  ASSERT_OK(world.session->Checkpoint());
  // Fire on the second shard's flip: shard 0 rotates, shard 1 keeps epoch 1.
  resilience::ArmFault(resilience::kSiteEpochSwap,
                       resilience::FaultSpec{.every_nth = 2});
  Status published = PublishCurrent(&world);
  resilience::ClearFaults();
  ASSERT_FALSE(published.ok());
  EXPECT_EQ(world.live->EpochOf(0), 2u);
  EXPECT_EQ(world.live->EpochOf(1), 1u);

  // The mixed-epoch ring is a legal serving state: every shard answers.
  rec::QueryOptions query;
  query.request_id = 5;
  for (corpus::UserId u : {ego_, rival_}) {
    Result<rec::RecommendResult> served =
        world.live->Recommend(u, {test_stock_, test_cat_}, query);
    EXPECT_TRUE(served.ok()) << served.status().message();
  }

  // A later clean publish heals the ring.
  ASSERT_OK(PublishCurrent(&world));
  EXPECT_EQ(world.live->EpochOf(0), 2u);
  EXPECT_EQ(world.live->EpochOf(1), 2u);
}

TEST_F(LiveFixture, BadSnapshotPublishFailsAndKeepsServing) {
  LiveWorld world = MakeLiveWorld(this, 1, NewDir("badsnap"));
  ASSERT_OK(PublishCurrent(&world));
  Status published =
      world.live->Publish(root_ + "/does_not_exist.snap", 9,
                          world.session->CopyTrainSets());
  ASSERT_FALSE(published.ok());
  EXPECT_EQ(world.live->EpochOf(0), 1u);
  rec::QueryOptions query;
  query.request_id = 3;
  Result<rec::RecommendResult> served =
      world.live->Recommend(ego_, {test_stock_, test_cat_}, query);
  EXPECT_TRUE(served.ok()) << served.status().message();
}

TEST_F(LiveFixture, LiveBackendServesAndDrivesIngest) {
  LiveWorld world = MakeLiveWorld(this, 1, NewDir("backend"));
  ASSERT_OK(PublishCurrent(&world));

  LiveBackend::Options options;
  options.live = world.live;
  options.users = {ego_, rival_};
  options.candidates =
      [this](corpus::UserId) -> std::vector<corpus::TweetId> {
    return {test_stock_, test_cat_};
  };
  StreamSession* session = world.session.get();
  std::shared_ptr<LiveRecommender> live = world.live;
  options.ingest = [session, live](uint64_t) -> Result<uint64_t> {
    Result<uint64_t> applied = session->IngestNext();
    if (!applied.ok()) return applied.status();
    if (*applied == 0) return applied;  // drained: nothing to publish
    MICROREC_RETURN_IF_ERROR(session->Checkpoint());
    MICROREC_RETURN_IF_ERROR(live->Publish(
        session->checkpoint_snapshot_path(), session->epoch(),
        session->CopyTrainSets()));
    return applied;
  };
  load::BackendFactory factory = LiveBackend::Factory(options);
  std::unique_ptr<load::Backend> backend = factory();
  ASSERT_OK(backend->Warm());

  obs::RequestTrace trace(11, "recommend");
  Result<load::RecommendOutcome> outcome = backend->Recommend(11, 0, &trace);
  ASSERT_TRUE(outcome.ok()) << outcome.status().message();
  EXPECT_GT(outcome->ranked, 0u);
  const uint64_t hash_before = outcome->ranking_hash;
  EXPECT_EQ(outcome->shard, -1);  // single shard skips the breakdown

  // Drive ingest ops through the backend seam until the stream drains.
  uint64_t rid = 100;
  while (session->remaining_batches() > 0) {
    Result<uint64_t> applied = backend->Ingest(rid++);
    ASSERT_TRUE(applied.ok()) << applied.status().message();
  }
  EXPECT_EQ(world.live->EpochOf(0), session->epoch());
  EXPECT_GT(session->epoch(), 1u);

  // Same rid, same user, post-rotation: the ranking hash is unchanged
  // because only rival's models moved.
  outcome = backend->Recommend(11, 0, &trace);
  ASSERT_OK(outcome);
  EXPECT_EQ(outcome->ranking_hash, hash_before);

  Result<uint64_t> profile = backend->ProfileLookup(1);  // rival
  ASSERT_TRUE(profile.ok()) << profile.status().message();

  // A backend with no ingest hook refuses ingest ops.
  LiveBackend::Options bare = options;
  bare.ingest = nullptr;
  std::unique_ptr<load::Backend> no_ingest = LiveBackend::Factory(bare)();
  Result<uint64_t> refused = no_ingest->Ingest(1);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace microrec::stream
