#include "snapshot/wal.h"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>

#include "obs/metrics.h"
#include "resilience/fault.h"
#include "snapshot/format.h"
#include "util/fs.h"

namespace microrec::snapshot {
namespace {

namespace fs = std::filesystem;

obs::Counter* AppendCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("stream.wal.appends");
  return counter;
}

obs::Counter* ReplayCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("stream.wal.replayed_records");
  return counter;
}

std::string ErrnoText() { return std::strerror(errno); }

/// Parses "wal-<digits>.seg[.open]"; false for everything else.
bool ParseSegmentName(const std::string& name, uint64_t* seq, bool* sealed) {
  constexpr std::string_view kPrefix = "wal-";
  constexpr std::string_view kSealedSuffix = ".seg";
  constexpr std::string_view kOpenSuffix = ".seg.open";
  if (name.compare(0, kPrefix.size(), kPrefix) != 0) return false;
  size_t digits_end;
  std::string_view suffix;
  if (name.size() > kOpenSuffix.size() &&
      name.compare(name.size() - kOpenSuffix.size(), kOpenSuffix.size(),
                   kOpenSuffix) == 0) {
    digits_end = name.size() - kOpenSuffix.size();
    *sealed = false;
  } else if (name.size() > kSealedSuffix.size() &&
             name.compare(name.size() - kSealedSuffix.size(),
                          kSealedSuffix.size(), kSealedSuffix) == 0) {
    digits_end = name.size() - kSealedSuffix.size();
    *sealed = true;
  } else {
    return false;
  }
  if (digits_end <= kPrefix.size()) return false;
  uint64_t value = 0;
  for (size_t i = kPrefix.size(); i < digits_end; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    value = value * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *seq = value;
  return true;
}

Status ReadFileBytes(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::Internal("wal: cannot open " + path + ": " + ErrnoText());
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) {
    return Status::Internal("wal: read failed for " + path);
  }
  *out = std::move(bytes);
  return Status::OK();
}

Status DataLossAt(const std::string& path, uint64_t offset,
                  const std::string& what) {
  return Status::DataLoss(path + ":offset " + std::to_string(offset) + ": " +
                          what);
}

/// Scans the records of one segment. For a sealed segment any malformation
/// is DataLoss; for the open segment the first malformation sets
/// `*torn_at` and the scan stops cleanly (the caller truncates).
Status ScanSegment(const WalSegmentInfo& segment, const std::string& bytes,
                   const WalRecordHandler& handler, uint64_t* records,
                   uint64_t* torn_at) {
  uint64_t pos = kWalMagicSize;
  const uint64_t size = bytes.size();
  while (pos < size) {
    const uint64_t header_at = pos;
    auto torn = [&](const std::string& what) -> Status {
      if (segment.sealed) return DataLossAt(segment.path, header_at, what);
      *torn_at = header_at;
      return Status::OK();
    };
    if (size - pos < 8) return torn("truncated record header");
    auto read_u32 = [&bytes](uint64_t at) {
      uint32_t v = 0;
      for (int i = 0; i < 4; ++i) {
        v |= static_cast<uint32_t>(
                 static_cast<unsigned char>(bytes[at + i]))
             << (8 * i);
      }
      return v;
    };
    const uint32_t payload_len = read_u32(pos);
    const uint32_t crc = read_u32(pos + 4);
    pos += 8;
    if (payload_len > kMaxWalRecordBytes) {
      // An over-cap length cannot come from a torn append (lengths are
      // written whole with the header): in either segment kind it means
      // the header bytes themselves are damaged. For the open segment the
      // damaged header is still just an unusable tail.
      return torn("record length " + std::to_string(payload_len) +
                  " exceeds cap " + std::to_string(kMaxWalRecordBytes));
    }
    if (size - pos < payload_len) return torn("truncated record payload");
    const std::string_view payload(bytes.data() + pos, payload_len);
    if (snapshot::Crc32(payload) != crc) {
      return torn("record checksum mismatch");
    }
    pos += payload_len;
    MICROREC_FAULT_POINT(resilience::kSiteWalReplay);
    WalRecordRef ref;
    ref.segment_seq = segment.seq;
    ref.file = &segment.path;
    ref.offset = header_at;
    ref.sealed = segment.sealed;
    MICROREC_RETURN_IF_ERROR(handler(payload, ref));
    ++*records;
    ReplayCounter()->Increment();
  }
  return Status::OK();
}

}  // namespace

std::string WalSegmentFileName(uint64_t seq, bool sealed) {
  std::string digits = std::to_string(seq);
  if (digits.size() < 8) digits.insert(0, 8 - digits.size(), '0');
  return "wal-" + digits + (sealed ? ".seg" : ".seg.open");
}

Result<std::vector<WalSegmentInfo>> ListWalSegments(const std::string& dir) {
  std::error_code ec;
  std::vector<WalSegmentInfo> segments;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    return Status::Internal("wal: cannot list " + dir + ": " + ec.message());
  }
  for (const fs::directory_entry& entry : it) {
    uint64_t seq = 0;
    bool sealed = true;
    const std::string name = entry.path().filename().string();
    if (!ParseSegmentName(name, &seq, &sealed)) continue;
    WalSegmentInfo info;
    info.seq = seq;
    info.path = entry.path().string();
    info.sealed = sealed;
    segments.push_back(std::move(info));
  }
  std::sort(segments.begin(), segments.end(),
            [](const WalSegmentInfo& a, const WalSegmentInfo& b) {
              return a.seq < b.seq;
            });
  size_t open_count = 0;
  for (size_t i = 0; i < segments.size(); ++i) {
    if (!segments[i].sealed) ++open_count;
    if (i > 0 && segments[i].seq == segments[i - 1].seq) {
      return Status::DataLoss("wal: duplicate segment sequence " +
                              std::to_string(segments[i].seq) + " in " + dir);
    }
  }
  if (open_count > 1) {
    return Status::DataLoss("wal: " + std::to_string(open_count) +
                            " open segments in " + dir +
                            "; a writer leaves at most one");
  }
  if (open_count == 1 && segments.back().sealed) {
    return Status::DataLoss("wal: open segment is not the newest in " + dir);
  }
  return segments;
}

Result<WalReplayStats> ReplayWal(const std::string& dir,
                                 const WalRecordHandler& handler) {
  Result<std::vector<WalSegmentInfo>> segments = ListWalSegments(dir);
  if (!segments.ok()) return segments.status();
  WalReplayStats stats;
  for (const WalSegmentInfo& segment : *segments) {
    std::string bytes;
    MICROREC_RETURN_IF_ERROR(ReadFileBytes(segment.path, &bytes));
    if (bytes.size() < kWalMagicSize ||
        bytes.compare(0, kWalMagicSize, kWalMagic, kWalMagicSize) != 0) {
      if (segment.sealed) {
        return DataLossAt(segment.path, 0, "bad segment magic");
      }
      // The writer was killed before the open segment's magic reached the
      // disk (or the magic itself was damaged): nothing in the file is
      // attributable, so drop it rather than seal garbage later.
      std::error_code ec;
      fs::remove(segment.path, ec);
      if (ec) {
        return Status::Internal("wal: cannot remove torn segment " +
                                segment.path + ": " + ec.message());
      }
      stats.tail_truncated = true;
      stats.truncated_bytes += bytes.size();
      continue;
    }
    uint64_t torn_at = UINT64_MAX;
    MICROREC_RETURN_IF_ERROR(
        ScanSegment(segment, bytes, handler, &stats.records, &torn_at));
    if (torn_at != UINT64_MAX) {
      std::error_code ec;
      fs::resize_file(segment.path, torn_at, ec);
      if (ec) {
        return Status::Internal("wal: cannot truncate torn tail of " +
                                segment.path + ": " + ec.message());
      }
      stats.tail_truncated = true;
      stats.truncated_bytes += bytes.size() - torn_at;
    }
    ++stats.segments;
  }
  return stats;
}

Result<size_t> PruneWalSegments(const std::string& dir, uint64_t through_seq) {
  Result<std::vector<WalSegmentInfo>> segments = ListWalSegments(dir);
  if (!segments.ok()) return segments.status();
  size_t removed = 0;
  for (const WalSegmentInfo& segment : *segments) {
    if (!segment.sealed || segment.seq > through_seq) continue;
    std::error_code ec;
    fs::remove(segment.path, ec);
    if (ec) {
      return Status::Internal("wal: cannot prune " + segment.path + ": " +
                              ec.message());
    }
    ++removed;
  }
  return removed;
}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(const std::string& dir) {
  MICROREC_RETURN_IF_ERROR(util::EnsureDirectory(dir));
  Result<std::vector<WalSegmentInfo>> segments = ListWalSegments(dir);
  if (!segments.ok()) return segments.status();
  uint64_t max_seq = 0;
  for (const WalSegmentInfo& segment : *segments) {
    max_seq = std::max(max_seq, segment.seq);
    if (segment.sealed) continue;
    // A leftover open segment means the previous writer died. Recovery
    // (ReplayWal) has already truncated any torn tail; seal what remains
    // so this writer never appends to a file it did not start.
    const std::string sealed_path =
        (fs::path(dir) / WalSegmentFileName(segment.seq, /*sealed=*/true))
            .string();
    std::error_code ec;
    fs::rename(segment.path, sealed_path, ec);
    if (ec) {
      return Status::Internal("wal: cannot seal leftover segment " +
                              segment.path + ": " + ec.message());
    }
  }
  std::unique_ptr<WalWriter> writer(new WalWriter(dir));
  writer->seq_ = max_seq + 1;
  MICROREC_RETURN_IF_ERROR(writer->OpenSegment());
  return writer;
}

WalWriter::~WalWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

Status WalWriter::OpenSegment() {
  const std::string path =
      (fs::path(dir_) / WalSegmentFileName(seq_, /*sealed=*/false)).string();
  // "x": refuse to clobber — a pre-existing file at this sequence means
  // the directory is shared by two writers, which the format forbids.
  file_ = std::fopen(path.c_str(), "wbx");
  if (file_ == nullptr) {
    return Status::Internal("wal: cannot create segment " + path + ": " +
                            ErrnoText());
  }
  segment_records_ = 0;
  if (std::fwrite(kWalMagic, 1, kWalMagicSize, file_) != kWalMagicSize ||
      std::fflush(file_) != 0) {
    return Status::Internal("wal: cannot write magic to " + path);
  }
  return Status::OK();
}

Status WalWriter::SealCurrent() {
  const std::string open_path =
      (fs::path(dir_) / WalSegmentFileName(seq_, /*sealed=*/false)).string();
  const std::string sealed_path =
      (fs::path(dir_) / WalSegmentFileName(seq_, /*sealed=*/true)).string();
  if (std::fclose(file_) != 0) {
    file_ = nullptr;
    return Status::Internal("wal: close failed for " + open_path);
  }
  file_ = nullptr;
  std::error_code ec;
  fs::rename(open_path, sealed_path, ec);
  if (ec) {
    return Status::Internal("wal: cannot seal " + open_path + ": " +
                            ec.message());
  }
  return Status::OK();
}

Status WalWriter::Append(std::string_view payload) {
  MICROREC_FAULT_POINT(resilience::kSiteWalAppend);
  if (file_ == nullptr) {
    return Status::FailedPrecondition("wal: writer is closed");
  }
  if (payload.size() > kMaxWalRecordBytes) {
    return Status::InvalidArgument(
        "wal: record of " + std::to_string(payload.size()) +
        " bytes exceeds cap " + std::to_string(kMaxWalRecordBytes));
  }
  const uint32_t payload_len = static_cast<uint32_t>(payload.size());
  const uint32_t crc = snapshot::Crc32(payload);
  unsigned char header[8];
  for (int i = 0; i < 4; ++i) {
    header[i] = static_cast<unsigned char>((payload_len >> (8 * i)) & 0xFFu);
    header[4 + i] = static_cast<unsigned char>((crc >> (8 * i)) & 0xFFu);
  }
  if (std::fwrite(header, 1, sizeof(header), file_) != sizeof(header) ||
      std::fwrite(payload.data(), 1, payload.size(), file_) !=
          payload.size() ||
      std::fflush(file_) != 0) {
    return Status::Internal("wal: append failed in segment " +
                            std::to_string(seq_) + ": " + ErrnoText());
  }
  ++segment_records_;
  AppendCounter()->Increment();
  return Status::OK();
}

Result<uint64_t> WalWriter::Rotate() {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("wal: writer is closed");
  }
  const uint64_t sealed_seq = seq_;
  MICROREC_RETURN_IF_ERROR(SealCurrent());
  ++seq_;
  MICROREC_RETURN_IF_ERROR(OpenSegment());
  return sealed_seq;
}

}  // namespace microrec::snapshot
