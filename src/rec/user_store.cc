#include "rec/user_store.h"

#include <cstring>

namespace microrec::rec {

uint64_t MixFingerprint(uint64_t h, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xFFu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

Status CheckVocabFingerprint(const std::string& origin, uint64_t expected,
                             uint64_t computed) {
  if (computed == expected) return Status::OK();
  return Status::FailedPrecondition(
      origin + ": vocabulary fingerprint mismatch (snapshot " +
      std::to_string(expected) + ", computed " + std::to_string(computed) +
      ")");
}

obs::Counter* MappedRowErrorCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("snapshot.mapped_row_errors");
  return counter;
}

// ---- RowWriter. ----

void RowWriter::Strings(const std::vector<std::string>& values) {
  if (v1_ != nullptr) return v1_->PutVecString(values);
  snapshot::PutVarint(v2_, values.size());
  for (const std::string& s : values) {
    snapshot::PutVarint(v2_, s.size());
    v2_->append(s);
  }
}

void RowWriter::U32s(const std::vector<uint32_t>& values) {
  if (v1_ != nullptr) return v1_->PutVecU32(values);
  snapshot::PutVarint(v2_, values.size());
  for (uint32_t v : values) snapshot::PutVarint(v2_, v);
}

void RowWriter::U64(uint64_t value) {
  if (v1_ != nullptr) return v1_->PutU64(value);
  snapshot::PutVarint(v2_, value);
}

void RowWriter::Ids(const std::vector<uint64_t>& ids, bool wide) {
  if (v1_ == nullptr) return snapshot::PutDeltaIds(v2_, ids);
  if (wide) return v1_->PutVecU64(ids);
  v1_->PutVecU32(std::vector<uint32_t>(ids.begin(), ids.end()));
}

void RowWriter::F64s(const std::vector<double>& values) {
  if (v1_ != nullptr) return v1_->PutVecF64(values);
  snapshot::PutVarint(v2_, values.size());
  for (double v : values) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      v2_->push_back(static_cast<char>((bits >> (8 * i)) & 0xFF));
    }
  }
}

// ---- RowReader. ----

Status RowReader::Count(uint64_t* count, size_t min_item_bytes,
                        const char* what) {
  MICROREC_RETURN_IF_ERROR(
      snapshot::GetVarint(v2_, &pos_, count, 0, origin_, what));
  if (*count > (v2_.size() - pos_) / min_item_bytes) {
    return Status::DataLoss(origin_ + ":offset " + std::to_string(pos_) +
                            ": " + what + " count " + std::to_string(*count) +
                            " overruns the row");
  }
  return Status::OK();
}

Status RowReader::Strings(std::vector<std::string>* values, const char* what) {
  if (v1_ != nullptr) return v1_->ReadVecString(values);
  uint64_t count = 0;
  MICROREC_RETURN_IF_ERROR(Count(&count, 1, what));
  values->clear();
  values->reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t len = 0;
    MICROREC_RETURN_IF_ERROR(
        snapshot::GetVarint(v2_, &pos_, &len, 0, origin_, what));
    if (len > v2_.size() - pos_) {
      return Status::DataLoss(origin_ + ":offset " + std::to_string(pos_) +
                              ": " + what + " string of " +
                              std::to_string(len) + " bytes overruns the row");
    }
    values->emplace_back(v2_.substr(pos_, static_cast<size_t>(len)));
    pos_ += static_cast<size_t>(len);
  }
  return Status::OK();
}

Status RowReader::U32s(std::vector<uint32_t>* values, const char* what) {
  if (v1_ != nullptr) return v1_->ReadVecU32(values);
  uint64_t count = 0;
  MICROREC_RETURN_IF_ERROR(Count(&count, 1, what));
  values->clear();
  values->reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t v = 0;
    MICROREC_RETURN_IF_ERROR(
        snapshot::GetVarint(v2_, &pos_, &v, 0, origin_, what));
    if (v > UINT32_MAX) {
      return Status::DataLoss(origin_ + ":offset " + std::to_string(pos_) +
                              ": " + what + " value " + std::to_string(v) +
                              " exceeds 32 bits");
    }
    values->push_back(static_cast<uint32_t>(v));
  }
  return Status::OK();
}

Status RowReader::U64(uint64_t* value, const char* what) {
  if (v1_ != nullptr) return v1_->ReadU64(value);
  return snapshot::GetVarint(v2_, &pos_, value, 0, origin_, what);
}

Status RowReader::Ids(std::vector<uint64_t>* ids, bool wide,
                      const char* what) {
  if (v1_ == nullptr) {
    return snapshot::GetDeltaIds(v2_, &pos_, ids, v2_.size(), 0, origin_,
                                 what);
  }
  if (wide) return v1_->ReadVecU64(ids);
  std::vector<uint32_t> narrow;
  MICROREC_RETURN_IF_ERROR(v1_->ReadVecU32(&narrow));
  ids->assign(narrow.begin(), narrow.end());
  return Status::OK();
}

Status RowReader::F64s(std::vector<double>* values, const char* what) {
  if (v1_ != nullptr) return v1_->ReadVecF64(values);
  uint64_t count = 0;
  MICROREC_RETURN_IF_ERROR(Count(&count, 8, what));
  values->clear();
  values->reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t bits = 0;
    for (int b = 0; b < 8; ++b) {
      bits |= static_cast<uint64_t>(
                  static_cast<uint8_t>(v2_[pos_ + static_cast<size_t>(b)]))
              << (8 * b);
    }
    pos_ += 8;
    double v = 0;
    std::memcpy(&v, &bits, sizeof(v));
    values->push_back(v);
  }
  return Status::OK();
}

Status RowReader::End() const {
  if (v1_ != nullptr || pos_ == v2_.size()) return Status::OK();
  return Status::DataLoss(origin_ + ":offset " + std::to_string(pos_) + ": " +
                          std::to_string(v2_.size() - pos_) +
                          " trailing bytes in row");
}

namespace internal {

Status ForEachRow(const snapshot::File& file, std::string_view section,
                  const std::function<std::string(uint64_t)>& origin,
                  const std::function<Status(uint64_t, RowReader*)>& fn) {
  if (file.version() == 2) {
    Result<const snapshot::Section*> found = file.Find(section);
    if (!found.ok()) return found.status();
    const std::string& payload = (*found)->payload;
    snapshot::TableIndex index;
    MICROREC_RETURN_IF_ERROR(snapshot::ParseTableIndex(
        payload, payload.size(), &index, (*found)->payload_offset,
        file.origin() + ":section \"" + std::string(section) + "\""));
    for (size_t i = 0; i < index.ids.size(); ++i) {
      const std::string row_origin = origin(index.ids[i]);
      RowReader in(std::string_view(payload).substr(
                       static_cast<size_t>(index.row_offset(i)),
                       static_cast<size_t>(index.row_length(i))),
                   row_origin);
      MICROREC_RETURN_IF_ERROR(fn(index.ids[i], &in));
    }
    return Status::OK();
  }
  Result<snapshot::Decoder> dec = file.OpenSection(section);
  if (!dec.ok()) return dec.status();
  uint64_t count = 0;
  MICROREC_RETURN_IF_ERROR(dec->ReadU64(&count));
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t id = 0;
    MICROREC_RETURN_IF_ERROR(dec->ReadU64(&id));
    const std::string row_origin = origin(id);
    RowReader in(&*dec, row_origin);
    MICROREC_RETURN_IF_ERROR(fn(id, &in));
  }
  return dec->ExpectEnd();
}

}  // namespace internal

}  // namespace microrec::rec
