// Sweep checkpoints (eval::SweepCheckpoint): outcomes round-trip through the
// microrec.wal/1 log bit-exactly, the last record for a fingerprint wins,
// torn and corrupt logs follow the WAL's rules, and paths that do not hold
// a sweep log are refused without being touched.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "eval/sweep.h"
#include "rec/model_config.h"
#include "snapshot/format.h"
#include "snapshot/wal.h"
#include "testing/scratch_dir.h"
#include "testing/status_matchers.h"

namespace microrec::eval {
namespace {

namespace fs = std::filesystem;

rec::ModelConfig TnConfig(int n) {
  rec::ModelConfig config;
  config.kind = rec::ModelKind::kTN;
  config.bag.n = n;
  return config;
}

ConfigOutcome MakeOutcome(const rec::ModelConfig& config) {
  ConfigOutcome outcome;
  outcome.config = config;
  outcome.result.users = {3, 7, 11};
  outcome.result.aps = {0.5, 0.25, 1.0 / 3.0};
  outcome.result.ttime_seconds = 1.25;
  outcome.result.etime_seconds = 0.0625;
  return outcome;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

class CheckpointTest : public ::testing::Test {
 protected:
  std::string SegmentPath(uint64_t seq, bool sealed) const {
    return path_ + "/" + snapshot::WalSegmentFileName(seq, sealed);
  }

  testutil::ScratchDir scratch_{"microrec_ckpt_test"};
  std::string path_ = scratch_.File("sweep.ckpt");
};

TEST_F(CheckpointTest, OpenMissingFileIsEmpty) {
  Result<SweepCheckpoint> ckpt =
      SweepCheckpoint::Open(path_, "source=R seed=1");
  ASSERT_OK(ckpt);
  EXPECT_EQ(ckpt->size(), 0u);
  EXPECT_FALSE(fs::exists(path_));  // created on first Append
}

TEST_F(CheckpointTest, AppendThenReopenRestoresRecords) {
  {
    Result<SweepCheckpoint> ckpt =
        SweepCheckpoint::Open(path_, "source=R seed=1");
    ASSERT_OK(ckpt);
    ASSERT_OK(ckpt->Append(MakeOutcome(TnConfig(1))));
    ASSERT_OK(ckpt->Append(MakeOutcome(TnConfig(2))));
  }
  Result<SweepCheckpoint> reopened =
      SweepCheckpoint::Open(path_, "source=R seed=1");
  ASSERT_OK(reopened);
  EXPECT_EQ(reopened->size(), 2u);
  std::optional<ConfigOutcome> found = reopened->Find(TnConfig(1));
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->config.Fingerprint(), TnConfig(1).Fingerprint());
  EXPECT_TRUE(found->ok());
  const ConfigOutcome expected = MakeOutcome(TnConfig(1));
  EXPECT_EQ(found->result.users, expected.result.users);
  EXPECT_EQ(found->result.aps, expected.result.aps);  // bit-exact doubles
  EXPECT_EQ(found->result.ttime_seconds, 1.25);
  EXPECT_EQ(found->result.etime_seconds, 0.0625);
  EXPECT_FALSE(reopened->Find(TnConfig(3)).has_value());
}

TEST_F(CheckpointTest, AppendReplacesSameFingerprint) {
  ConfigOutcome updated = MakeOutcome(TnConfig(1));
  updated.result.ttime_seconds = 9.0;
  {
    Result<SweepCheckpoint> ckpt = SweepCheckpoint::Open(path_, "k");
    ASSERT_OK(ckpt);
    ASSERT_OK(ckpt->Append(MakeOutcome(TnConfig(1))));
    ASSERT_OK(ckpt->Append(updated));
    EXPECT_EQ(ckpt->size(), 1u);
    EXPECT_EQ(ckpt->Find(TnConfig(1))->result.ttime_seconds, 9.0);
  }
  // The last record also wins on replay, and across a reopen that appends
  // into a new segment.
  {
    Result<SweepCheckpoint> reopened = SweepCheckpoint::Open(path_, "k");
    ASSERT_OK(reopened);
    EXPECT_EQ(reopened->size(), 1u);
    EXPECT_EQ(reopened->Find(TnConfig(1))->result.ttime_seconds, 9.0);
    updated.result.ttime_seconds = 4.5;
    ASSERT_OK(reopened->Append(updated));
  }
  Result<SweepCheckpoint> again = SweepCheckpoint::Open(path_, "k");
  ASSERT_OK(again);
  EXPECT_EQ(again->size(), 1u);
  EXPECT_EQ(again->Find(TnConfig(1))->result.ttime_seconds, 4.5);
}

TEST_F(CheckpointTest, FailedOutcomeRoundTripsCodeAndError) {
  rec::ModelConfig lda;
  lda.kind = rec::ModelKind::kLDA;
  ConfigOutcome failed;
  failed.config = lda;
  failed.status = Status::DeadlineExceeded(
      "deadline exceeded during \"LDA\"\tsweep 12\nsecond line");
  {
    Result<SweepCheckpoint> ckpt = SweepCheckpoint::Open(path_, "k");
    ASSERT_OK(ckpt);
    ASSERT_OK(ckpt->Append(failed));
  }
  Result<SweepCheckpoint> reopened = SweepCheckpoint::Open(path_, "k");
  ASSERT_OK(reopened);
  std::optional<ConfigOutcome> found = reopened->Find(lda);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(found->status.message(), failed.status.message());
  EXPECT_TRUE(found->result.users.empty());
}

TEST_F(CheckpointTest, MismatchedKeyRefusesToLoad) {
  {
    Result<SweepCheckpoint> ckpt =
        SweepCheckpoint::Open(path_, "source=R seed=1");
    ASSERT_OK(ckpt);
    ASSERT_OK(ckpt->Append(MakeOutcome(TnConfig(1))));
  }
  Result<SweepCheckpoint> wrong =
      SweepCheckpoint::Open(path_, "source=E seed=1");
  EXPECT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(CheckpointTest, TornOpenSegmentTailRestoresEarlierRecords) {
  {
    Result<SweepCheckpoint> ckpt = SweepCheckpoint::Open(path_, "k");
    ASSERT_OK(ckpt);
    ASSERT_OK(ckpt->Append(MakeOutcome(TnConfig(1))));
    ASSERT_OK(ckpt->Append(MakeOutcome(TnConfig(2))));
  }
  // A crash mid-append: chop the last record in half.
  const std::string open_segment = SegmentPath(1, /*sealed=*/false);
  fs::resize_file(open_segment, fs::file_size(open_segment) - 20);
  Result<SweepCheckpoint> reopened = SweepCheckpoint::Open(path_, "k");
  ASSERT_OK(reopened);
  EXPECT_EQ(reopened->size(), 1u);
  EXPECT_TRUE(reopened->Find(TnConfig(1)).has_value());
  EXPECT_FALSE(reopened->Find(TnConfig(2)).has_value());
}

TEST_F(CheckpointTest, SealedSegmentCorruptionIsDataLossNamingOffset) {
  {
    Result<SweepCheckpoint> ckpt = SweepCheckpoint::Open(path_, "k");
    ASSERT_OK(ckpt);
    ASSERT_OK(ckpt->Append(MakeOutcome(TnConfig(1))));
    ASSERT_OK(ckpt->Append(MakeOutcome(TnConfig(2))));
  }
  {
    // Appending after a reopen seals the first segment.
    Result<SweepCheckpoint> ckpt = SweepCheckpoint::Open(path_, "k");
    ASSERT_OK(ckpt);
    ASSERT_OK(ckpt->Append(MakeOutcome(TnConfig(3))));
  }
  const std::string sealed = SegmentPath(1, /*sealed=*/true);
  ASSERT_TRUE(fs::exists(sealed));
  // Flip a byte inside the last record of the sealed segment.
  std::string bytes = ReadBytes(sealed);
  bytes[bytes.size() - 3] ^= 0x40;
  std::ofstream(sealed, std::ios::binary | std::ios::trunc) << bytes;

  Result<SweepCheckpoint> reopened = SweepCheckpoint::Open(path_, "k");
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(reopened.status().message().find(sealed + ":offset "),
            std::string::npos)
      << reopened.status().ToString();
}

TEST_F(CheckpointTest, RejectsLogWithoutSweepHeader) {
  // A well-formed microrec.wal/1 log whose first record is something else
  // (for example a stream-ingest log).
  {
    Result<std::unique_ptr<snapshot::WalWriter>> writer =
        snapshot::WalWriter::Open(path_);
    ASSERT_OK(writer);
    snapshot::Encoder enc;
    enc.PutString("other.format/9");
    enc.PutString("k");
    ASSERT_OK((*writer)->Append(enc.bytes()));
  }
  Result<SweepCheckpoint> ckpt = SweepCheckpoint::Open(path_, "k");
  ASSERT_FALSE(ckpt.ok());
  EXPECT_EQ(ckpt.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(ckpt.status().message().find("microrec.sweep_ckpt/2"),
            std::string::npos)
      << ckpt.status().ToString();
}

TEST_F(CheckpointTest, RegularFileAtPathIsRefusedUntouched) {
  // A JSONL checkpoint left by an older build.
  const std::string legacy =
      "{\"schema\":\"microrec.sweep_ckpt/1\",\"key\":\"k\"}\n";
  std::ofstream(path_, std::ios::binary) << legacy;
  Result<SweepCheckpoint> ckpt = SweepCheckpoint::Open(path_, "k");
  ASSERT_FALSE(ckpt.ok());
  EXPECT_EQ(ckpt.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(ckpt.status().message().find(path_), std::string::npos)
      << ckpt.status().ToString();
  EXPECT_TRUE(fs::is_regular_file(path_));
  EXPECT_EQ(ReadBytes(path_), legacy);
}

TEST_F(CheckpointTest, AppendGrowsOpenSegmentByOneFrame) {
  Result<SweepCheckpoint> ckpt = SweepCheckpoint::Open(path_, "k");
  ASSERT_OK(ckpt);
  ASSERT_OK(ckpt->Append(MakeOutcome(TnConfig(1))));
  const std::string open_segment = SegmentPath(1, /*sealed=*/false);
  std::string before = ReadBytes(open_segment);
  for (int n = 2; n <= 4; ++n) {
    ASSERT_OK(ckpt->Append(MakeOutcome(TnConfig(n))));
    const std::string after = ReadBytes(open_segment);
    // Earlier bytes are never rewritten: the segment only grows, by one
    // frame of 8 header bytes (u32 length, u32 crc32) plus the payload.
    ASSERT_GT(after.size(), before.size() + 8);
    EXPECT_EQ(after.compare(0, before.size(), before), 0) << "append " << n;
    snapshot::Decoder frame(std::string_view(after).substr(before.size()));
    uint32_t length = 0, crc = 0;
    ASSERT_OK(frame.ReadU32(&length));
    ASSERT_OK(frame.ReadU32(&crc));
    EXPECT_EQ(after.size(), before.size() + 8 + length) << "append " << n;
    EXPECT_EQ(snapshot::Crc32(std::string_view(after).substr(
                  before.size() + 8)),
              crc);
    before = after;
  }
}

}  // namespace
}  // namespace microrec::eval
