// The streaming-ingest write-ahead log: the `microrec.wal/1` container
// (DESIGN.md §14). Every ingest batch is appended to the log *before* it
// mutates any in-memory model, so a process killed at any instant can
// reconstruct exactly the applied prefix by replaying the log over the
// last durable snapshot.
//
// Wire format (all integers little-endian):
//
//   magic     15 bytes  "microrec.wal/1\n"
//   record*   repeated to EOF:
//     u32  payload_len   (capped at kMaxWalRecordBytes)
//     u32  crc32         over the payload bytes
//     ...  payload bytes
//
// A log is a directory of *segments*. Exactly one segment is open for
// appends (`wal-<seq>.seg.open`); sealed segments (`wal-<seq>.seg`) are
// immutable and sealing is an atomic rename — the same tmp+rename
// discipline as snapshot::Writer::Commit, so a crash mid-seal leaves
// either the open file or the sealed file, never both and never a half
// name. Sequence numbers are assigned monotonically and never reused.
//
// Replay walks segments in sequence order and distinguishes two kinds of
// damage:
//   * a malformed record in a *sealed* segment is corruption — DataLoss
//     naming the file and byte offset; the caller must not trust the log;
//   * a malformed record at the tail of the *open* segment is a torn
//     write (the process died mid-append) — the tail is truncated back to
//     the last whole record and replay succeeds over the clean prefix.
//
// Appends fflush() every record: the bytes survive process death (the
// crash model the kill-anywhere gate arms), though not OS/power loss.
#ifndef MICROREC_SNAPSHOT_WAL_H_
#define MICROREC_SNAPSHOT_WAL_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace microrec::snapshot {

/// The segment magic; the trailing "/1\n" is the format version.
inline constexpr char kWalMagic[] = "microrec.wal/1\n";
inline constexpr size_t kWalMagicSize = 15;

/// Per-record payload cap: flipped length bits must not drive allocations.
inline constexpr uint32_t kMaxWalRecordBytes = 1u << 28;  // 256 MiB

/// File name of segment `seq` ("wal-00000042.seg" / ".seg.open").
std::string WalSegmentFileName(uint64_t seq, bool sealed);

struct WalSegmentInfo {
  uint64_t seq = 0;
  std::string path;
  bool sealed = true;
};

/// Segments of `dir` sorted by sequence number. Errors on two segments
/// with the same sequence or more than one open segment — states no crash
/// of the writer can produce.
Result<std::vector<WalSegmentInfo>> ListWalSegments(const std::string& dir);

/// Where a replayed record came from, for error reports and pruning.
struct WalRecordRef {
  uint64_t segment_seq = 0;
  const std::string* file = nullptr;  // segment path (borrowed)
  uint64_t offset = 0;                // absolute offset of the record header
  bool sealed = true;
};

struct WalReplayStats {
  uint64_t segments = 0;
  uint64_t records = 0;
  /// Torn-tail bytes physically truncated from the open segment.
  uint64_t truncated_bytes = 0;
  bool tail_truncated = false;
};

/// Invoked per record, in log order, with the CRC-verified payload. An
/// error stops the replay and propagates.
using WalRecordHandler =
    std::function<Status(std::string_view payload, const WalRecordRef& ref)>;

/// Replays every record of the log in order. Fault site: `wal.replay`
/// (per record). Sealed-segment damage is DataLoss naming file:offset;
/// open-segment damage truncates the torn tail (an open segment whose
/// magic is damaged is deleted outright — it holds nothing replayable).
Result<WalReplayStats> ReplayWal(const std::string& dir,
                                 const WalRecordHandler& handler);

/// Deletes every *sealed* segment with seq <= through_seq. The open
/// segment is never touched. Returns the number of segments removed.
Result<size_t> PruneWalSegments(const std::string& dir, uint64_t through_seq);

/// Appends records to the log of `dir`. Not thread-safe. Open() must be
/// preceded by ReplayWal() on the same directory when recovering: Open
/// seals any leftover open segment as-is (replay is what truncates a torn
/// tail first) and starts a fresh open segment above every existing
/// sequence number.
class WalWriter {
 public:
  static Result<std::unique_ptr<WalWriter>> Open(const std::string& dir);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one record and flushes it to the OS. Fault site: `wal.append`
  /// (fires before any byte is written — the record is wholly lost and
  /// must be re-offered).
  Status Append(std::string_view payload);

  /// Seals the current segment (atomic rename) and opens the next one.
  /// Returns the sealed segment's sequence number.
  Result<uint64_t> Rotate();

  uint64_t open_seq() const { return seq_; }
  uint64_t records_in_segment() const { return segment_records_; }
  const std::string& dir() const { return dir_; }

 private:
  explicit WalWriter(std::string dir) : dir_(std::move(dir)) {}

  Status OpenSegment();
  Status SealCurrent();

  std::string dir_;
  std::FILE* file_ = nullptr;
  uint64_t seq_ = 0;
  uint64_t segment_records_ = 0;
};

}  // namespace microrec::snapshot

#endif  // MICROREC_SNAPSHOT_WAL_H_
