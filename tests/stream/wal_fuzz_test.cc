// Deterministic corruption fuzzing of the microrec.wal/1 replay path via
// the snapshot mutation harness: every mutant of a pristine segment must
// replay to either a clean prefix (open-segment torn-tail semantics) or a
// DataLoss status — never a crash, never an unbounded allocation, and
// never a payload the record codec crashes on. The same holds for sweep
// checkpoint logs (eval::SweepCheckpoint), where a spliced mutant may also
// be refused as InvalidArgument. Run under ASan/UBSan these cases double
// as memory-safety proofs (the streaming-chaos CI job does).
//
// Knobs match snapshot_fuzz_test.cc: MICROREC_FUZZ_N / MICROREC_FUZZ_SEED
// / MICROREC_FUZZ_ARTIFACTS.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "eval/sweep.h"
#include "rec/model_config.h"
#include "snapshot/fuzz.h"
#include "snapshot/wal.h"
#include "stream/record.h"
#include "testing/scratch_dir.h"
#include "testing/status_matchers.h"

namespace microrec::stream {
namespace {

namespace fs = std::filesystem;

using snapshot::ReplayWal;
using snapshot::WalRecordRef;
using snapshot::WalReplayStats;
using snapshot::WalSegmentFileName;
using snapshot::WalWriter;

size_t FuzzN() {
  const char* env = std::getenv("MICROREC_FUZZ_N");
  if (env == nullptr) return 500;
  long long n = std::atoll(env);
  return n > 0 ? static_cast<size_t>(n) : 500;
}

uint64_t FuzzSeed() {
  const char* env = std::getenv("MICROREC_FUZZ_SEED");
  return env == nullptr ? 1 : std::strtoull(env, nullptr, 10);
}

std::string DumpArtifact(const std::string& format, uint64_t seed,
                         uint64_t index, const std::string& mutant) {
  const char* dir = std::getenv("MICROREC_FUZZ_ARTIFACTS");
  if (dir == nullptr || dir[0] == '\0') return {};
  std::error_code ec;
  fs::create_directories(dir, ec);
  std::string path = std::string(dir) + "/" + format + "-seed" +
                     std::to_string(seed) + "-case" + std::to_string(index) +
                     ".bin";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(mutant.data(), static_cast<std::streamsize>(mutant.size()));
  return path;
}

/// A realistic pristine segment: three batch records of different sizes
/// and one checkpoint record, written through the real writer so framing
/// is exactly what production produces.
std::string PristineSegment(std::vector<std::string>* payloads) {
  testutil::ScratchDir scratch("microrec_walfuzz_pristine");
  const std::string& dir = scratch.path();
  const char* texts[] = {
      "fluffy cat naps on warm windowsill",
      "bond yields fall after rate decision",
      "x",
  };
  {
    Result<std::unique_ptr<WalWriter>> writer = WalWriter::Open(dir);
    EXPECT_OK(writer);
    uint64_t tweet_id = 100;
    for (uint64_t b = 1; b <= 3; ++b) {
      TweetBatch batch;
      batch.batch_id = b;
      for (uint64_t i = 0; i < b; ++i) {  // growing batches: varied frames
        StreamTweet tweet;
        tweet.id = tweet_id++;
        tweet.author = 7;
        tweet.time = static_cast<corpus::Timestamp>(10 * tweet_id);
        tweet.text = texts[i % 3];
        batch.tweets.push_back(tweet);
      }
      payloads->push_back(EncodeBatchRecord(batch));
      EXPECT_OK((*writer)->Append(payloads->back()));
    }
    payloads->push_back(EncodeCheckpointRecord({3, 1}));
    EXPECT_OK((*writer)->Append(payloads->back()));
  }
  std::ifstream in(dir + "/" + WalSegmentFileName(1, /*sealed=*/false),
                   std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

constexpr char kCheckpointKey[] = "source=R seed=1";

/// A pristine sweep-checkpoint segment: the header and three outcomes, one
/// of them failed, written through eval::SweepCheckpoint.
std::string PristineCheckpointSegment(
    std::vector<eval::ConfigOutcome>* outcomes) {
  testutil::ScratchDir scratch("microrec_walfuzz_ckpt_pristine");
  const std::string dir = scratch.File("ckpt");
  for (int n = 1; n <= 3; ++n) {
    eval::ConfigOutcome outcome;
    outcome.config.kind = rec::ModelKind::kTN;
    outcome.config.bag.n = n;
    for (uint32_t u = 0; u < static_cast<uint32_t>(4 * n); ++u) {
      outcome.result.users.push_back(u * 7 + 1);
      outcome.result.aps.push_back(1.0 / (u + n));
    }
    outcome.result.ttime_seconds = 0.5 * n;
    outcome.result.etime_seconds = 0.125 * n;
    outcomes->push_back(outcome);
  }
  outcomes->back().result = eval::RunResult();
  outcomes->back().status = Status::Internal("injected \"fault\"\n");
  {
    Result<eval::SweepCheckpoint> ckpt =
        eval::SweepCheckpoint::Open(dir, kCheckpointKey);
    EXPECT_OK(ckpt);
    if (!ckpt.ok()) return {};
    for (const eval::ConfigOutcome& outcome : *outcomes) {
      EXPECT_OK(ckpt->Append(outcome));
    }
  }
  std::ifstream in(dir + "/" + WalSegmentFileName(1, /*sealed=*/false),
                   std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Replays `dir`, feeding every delivered payload through the record
/// codec; the handler mirrors recovery (decode errors propagate).
Result<WalReplayStats> ReplayAndDecode(const std::string& dir,
                                       std::vector<std::string>* delivered) {
  return ReplayWal(
      dir, [delivered](std::string_view payload,
                       const WalRecordRef& ref) -> Status {
        Result<DecodedWalRecord> decoded =
            DecodeWalRecord(payload, ref.offset + 8, *ref.file);
        if (!decoded.ok()) return decoded.status();
        delivered->push_back(std::string(payload));
        return Status::OK();
      });
}

class WalFuzzFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    // InstallSegment recreates the log directory inside the scratch one.
    dir_ = scratch_.File("log");
  }

  /// Installs `bytes` as the only segment of a fresh log directory.
  void InstallSegment(const std::string& bytes, bool sealed) {
    std::error_code ec;
    fs::remove_all(dir_, ec);
    fs::create_directories(dir_);
    std::ofstream out(dir_ + "/" + WalSegmentFileName(1, sealed),
                      std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
  }

  testutil::ScratchDir scratch_{"microrec_walfuzz"};
  std::string dir_;
};

TEST_F(WalFuzzFixture, MutatedSealedSegmentsPrefixOrDataLoss) {
  std::vector<std::string> pristine_payloads;
  const std::string pristine = PristineSegment(&pristine_payloads);
  const uint64_t seed = FuzzSeed();
  const size_t n = FuzzN();
  size_t rejected = 0;
  for (uint64_t index = 0; index < n; ++index) {
    snapshot::Mutation mutation;
    std::string mutant = snapshot::Mutate(pristine, seed, index, &mutation);
    InstallSegment(mutant, /*sealed=*/true);
    std::vector<std::string> delivered;
    Result<WalReplayStats> stats = ReplayAndDecode(dir_, &delivered);
    if (!stats.ok()) {
      // Sealed damage must be DataLoss, nothing else (and in particular
      // not a crash before we got here).
      if (stats.status().code() != StatusCode::kDataLoss) {
        std::string artifact = DumpArtifact("wal-sealed", seed, index, mutant);
        FAIL() << "case " << index << " (" << mutation.ToString()
               << ") failed with non-DataLoss: " << stats.status().message()
               << (artifact.empty() ? "" : "; mutant saved to " + artifact);
      }
      ++rejected;
      continue;
    }
    // An accepted mutant must have replayed a prefix of the pristine
    // record sequence: CRC framing makes anything else a missed
    // corruption.
    bool is_prefix = delivered.size() <= pristine_payloads.size();
    for (size_t i = 0; is_prefix && i < delivered.size(); ++i) {
      is_prefix = delivered[i] == pristine_payloads[i];
    }
    if (!is_prefix) {
      std::string artifact = DumpArtifact("wal-sealed", seed, index, mutant);
      FAIL() << "case " << index << " (" << mutation.ToString()
             << ") replayed a non-prefix record sequence"
             << (artifact.empty() ? "" : "; mutant saved to " + artifact);
    }
  }
  // Truncations and bit flips always change bytes; most must reject.
  EXPECT_GE(rejected, n / 3) << "suspiciously few rejections";
}

TEST_F(WalFuzzFixture, MutatedOpenSegmentsTruncateToCleanPrefix) {
  std::vector<std::string> pristine_payloads;
  const std::string pristine = PristineSegment(&pristine_payloads);
  const uint64_t seed = FuzzSeed() + 1;
  const size_t n = FuzzN();
  for (uint64_t index = 0; index < n; ++index) {
    snapshot::Mutation mutation;
    std::string mutant = snapshot::Mutate(pristine, seed, index, &mutation);
    InstallSegment(mutant, /*sealed=*/false);
    std::vector<std::string> delivered;
    Result<WalReplayStats> stats = ReplayAndDecode(dir_, &delivered);
    if (!stats.ok()) {
      // Only the codec can fail an open-segment replay (a framing-valid
      // payload that decodes wrong), and that is DataLoss by contract.
      if (stats.status().code() != StatusCode::kDataLoss) {
        std::string artifact = DumpArtifact("wal-open", seed, index, mutant);
        FAIL() << "case " << index << " (" << mutation.ToString()
               << ") failed with non-DataLoss: " << stats.status().message()
               << (artifact.empty() ? "" : "; mutant saved to " + artifact);
      }
      continue;
    }
    // Torn-tail truncation is physical and idempotent: a second replay of
    // the same directory must deliver the same records with no further
    // truncation.
    std::vector<std::string> redelivered;
    Result<WalReplayStats> again = ReplayAndDecode(dir_, &redelivered);
    ASSERT_TRUE(again.ok())
        << "case " << index << ": second replay failed after truncation: "
        << again.status().message();
    EXPECT_FALSE(again->tail_truncated) << "case " << index;
    EXPECT_EQ(redelivered.size(), delivered.size()) << "case " << index;
  }
}

TEST_F(WalFuzzFixture, MutatedSweepCheckpointLogsOpenCleanOrFail) {
  std::vector<eval::ConfigOutcome> pristine_outcomes;
  const std::string pristine = PristineCheckpointSegment(&pristine_outcomes);
  const uint64_t seed = FuzzSeed() + 2;
  const size_t n = FuzzN();
  size_t rejected = 0;
  for (uint64_t index = 0; index < n; ++index) {
    snapshot::Mutation mutation;
    std::string mutant = snapshot::Mutate(pristine, seed, index, &mutation);
    InstallSegment(mutant, /*sealed=*/index % 2 == 0);
    Result<eval::SweepCheckpoint> ckpt =
        eval::SweepCheckpoint::Open(dir_, kCheckpointKey);
    if (!ckpt.ok()) {
      const StatusCode code = ckpt.status().code();
      if (code != StatusCode::kDataLoss &&
          code != StatusCode::kInvalidArgument) {
        std::string artifact =
            DumpArtifact("sweep-ckpt", seed, index, mutant);
        FAIL() << "case " << index << " (" << mutation.ToString()
               << ") failed with " << ckpt.status().ToString()
               << (artifact.empty() ? "" : "; mutant saved to " + artifact);
      }
      ++rejected;
      continue;
    }
    // A clean open restores nothing but pristine outcomes.
    EXPECT_LE(ckpt->size(), pristine_outcomes.size()) << "case " << index;
    for (const eval::ConfigOutcome& expected : pristine_outcomes) {
      std::optional<eval::ConfigOutcome> found = ckpt->Find(expected.config);
      if (!found.has_value()) continue;
      const bool same = found->status.code() == expected.status.code() &&
                        found->status.message() == expected.status.message() &&
                        found->result.users == expected.result.users &&
                        found->result.aps == expected.result.aps &&
                        found->result.ttime_seconds ==
                            expected.result.ttime_seconds &&
                        found->result.etime_seconds ==
                            expected.result.etime_seconds;
      if (!same) {
        std::string artifact =
            DumpArtifact("sweep-ckpt", seed, index, mutant);
        FAIL() << "case " << index << " (" << mutation.ToString()
               << ") restored an outcome the log never held for "
               << expected.config.ToString()
               << (artifact.empty() ? "" : "; mutant saved to " + artifact);
      }
    }
  }
  EXPECT_GE(rejected, n / 4) << "suspiciously few rejections";
}

}  // namespace
}  // namespace microrec::stream
