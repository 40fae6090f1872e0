#include "snapshot/mapped.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "snapshot/format.h"

namespace microrec::snapshot {

namespace {

constexpr char kHeaderSection[] = "header";

std::string At(const std::string& origin, uint64_t offset) {
  return origin + ":offset " + std::to_string(offset);
}

}  // namespace

MappedFile::~MappedFile() { Unmap(); }

void MappedFile::Unmap() {
  if (data_ != nullptr) {
    ::munmap(const_cast<char*>(data_), static_cast<size_t>(map_size_));
    data_ = nullptr;
    map_size_ = 0;
  }
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : origin_(std::move(other.origin_)),
      data_(other.data_),
      map_size_(other.map_size_),
      header_(std::move(other.header_)),
      sections_(std::move(other.sections_)),
      version_(other.version_) {
  other.data_ = nullptr;
  other.map_size_ = 0;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    Unmap();
    origin_ = std::move(other.origin_);
    data_ = other.data_;
    map_size_ = other.map_size_;
    header_ = std::move(other.header_);
    sections_ = std::move(other.sections_);
    version_ = other.version_;
    other.data_ = nullptr;
    other.map_size_ = 0;
  }
  return *this;
}

Result<MappedFile> MappedFile::Open(const std::string& path) {
  MappedFile file;
  file.origin_ = path;

  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound("cannot open snapshot: " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::Internal("cannot stat snapshot: " + path);
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  if (size < kMagicSize) {
    ::close(fd);
    return Status::InvalidArgument(
        At(path, 0) + ": truncated magic (" + std::to_string(size) + " of " +
        std::to_string(kMagicSize) + " bytes)");
  }
  void* map = ::mmap(nullptr, static_cast<size_t>(size), PROT_READ,
                     MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    return Status::Internal("mmap failed for snapshot: " + path);
  }
  file.data_ = static_cast<const char*>(map);
  file.map_size_ = size;
  // Payload CRCs are deliberately NOT verified here — that would fault in
  // every page of the model. v2 integrity comes from per-block CRCs at read
  // time; v1 sections are verified when ReadSection copies them out.
  MICROREC_RETURN_IF_ERROR(ParseContainer(
      std::string_view(file.data_, static_cast<size_t>(size)), path,
      /*verify_crcs=*/false, &file.version_, &file.sections_,
      &file.header_));
  obs::MetricsRegistry::Global()
      .GetCounter("snapshot.mapped_opens")
      ->Increment();
  return file;
}

Result<const MappedFile::MappedSection*> MappedFile::Find(
    std::string_view name) const {
  for (const MappedSection& section : sections_) {
    if (section.name == name) return &section;
  }
  return Status::NotFound(origin_ + ": snapshot has no section \"" +
                          std::string(name) + "\"");
}

Status MappedFile::ReadSection(std::string_view name, std::string* out) const {
  Result<const MappedSection*> found = Find(name);
  if (!found.ok()) return found.status();
  const MappedSection& section = **found;
  if (version_ == 2 && section.name != kHeaderSection) {
    if (!LooksLikeStream(section.payload)) {
      return Status::DataLoss(At(origin_, section.payload_offset) +
                              ": v2 section \"" + std::string(section.name) +
                              "\" is not an MCS1 stream");
    }
    return DecompressStream(section.payload, out, section.payload_offset,
                            origin_ + ":section \"" +
                                std::string(section.name) + "\"");
  }
  MICROREC_RETURN_IF_ERROR(VerifyFrameCrc(section, origin_));
  out->assign(section.payload.data(), section.payload.size());
  return Status::OK();
}

Status MappedFile::VerifyIdentity(const std::string& model,
                                  const std::string& source, uint64_t seed,
                                  double iteration_scale,
                                  const std::string& config_fingerprint) const {
  return VerifyHeaderIdentity(header_, origin_, model, source, seed,
                              iteration_scale, config_fingerprint);
}

Result<MappedTable> MappedTable::Open(const MappedFile& file,
                                      std::string_view section_name) {
  Result<const MappedFile::MappedSection*> found = file.Find(section_name);
  if (!found.ok()) return found.status();
  const MappedFile::MappedSection& section = **found;
  const std::string origin =
      file.origin() + ":section \"" + std::string(section_name) + "\"";
  if (file.version() != 2) {
    return Status::FailedPrecondition(
        origin + ": mapped tables require a microrec.snap/2 container");
  }
  if (!LooksLikeStream(section.payload)) {
    return Status::DataLoss(At(file.origin(), section.payload_offset) +
                            ": v2 section \"" + std::string(section_name) +
                            "\" is not an MCS1 stream");
  }
  Result<BlockStream> stream =
      BlockStream::Open(section.payload, section.payload_offset, origin);
  if (!stream.ok()) return stream.status();

  MappedTable table;
  table.stream_ = std::move(*stream);

  // Two bounded varints tell us how big the index is; then one ReadRange
  // materializes exactly the index bytes — the only part of the table that
  // lives resident.
  std::string prefix;
  const size_t prefix_len = static_cast<size_t>(std::min<uint64_t>(
      table.stream_.raw_size(), 2 * kMaxVarintBytes));
  MICROREC_RETURN_IF_ERROR(table.stream_.ReadRange(0, prefix_len, &prefix));
  uint64_t index_bytes = 0;
  MICROREC_RETURN_IF_ERROR(TableIndexBytes(prefix, table.stream_.raw_size(),
                                           &index_bytes,
                                           section.payload_offset, origin));
  std::string index_prefix;
  MICROREC_RETURN_IF_ERROR(table.stream_.ReadRange(
      0, static_cast<size_t>(index_bytes), &index_prefix));
  MICROREC_RETURN_IF_ERROR(
      ParseTableIndex(index_prefix, table.stream_.raw_size(), &table.index_,
                      section.payload_offset, origin));
  return table;
}

Status MappedTable::Row(uint64_t id, bool* found, std::string* row) const {
  row->clear();
  const size_t ordinal = index_.Find(id);
  if (ordinal == TableIndex::kNotFound) {
    *found = false;
    return Status::OK();
  }
  *found = true;
  return RowAt(ordinal, row);
}

Status MappedTable::RowAt(size_t ordinal, std::string* row) const {
  std::lock_guard<std::mutex> lock(*mu_);
  return stream_.ReadRange(index_.row_offset(ordinal),
                           static_cast<size_t>(index_.row_length(ordinal)),
                           row);
}

}  // namespace microrec::snapshot
