// One store for the per-key model state every engine family persists
// (DESIGN.md §16): bag and graph user models, topic user distributions and
// the topic inference cache. All four are tables of rows keyed by a u64 id
// with one on-disk shape — v1: `u64 count` then `(u64 id, row)` pairs; v2: a
// snapshot::TableBuilder row table — so save, load, mmap serving, the LRU
// and invalidation live here once. A family supplies a row codec:
//
//   struct Codec {
//     using Row = ...;  // movable
//     // Writes / reads one row's fields (the same sequence in both
//     // versions); the result is the row's term fingerprint, 0 if none.
//     uint64_t Encode(const Row& row, RowWriter* out) const;
//     Result<Row> Decode(RowReader* in, uint64_t* term_fingerprint) const;
//     // Names row `id` of `section` in decode errors.
//     std::string RowOrigin(const std::string& file_origin,
//                           std::string_view section, uint64_t id,
//                           bool mapped) const;
//   };
//
// A resident store holds every row in memory. A mapped store serves a v2
// table from a snapshot::MappedFile, decoding a row on first use; rows
// decoded from the map sit behind an LRU, while rows Put() in memory (built
// users, fresh inferences) are pinned, since the map cannot reproduce them.
// Eviction only bounds memory: a re-decoded row is the same row.
// Invalidate() drops a row and, when mapped, blocks its re-materialization
// (the mapped bytes predate it). A mapped store is read-only.
//
// Not thread-safe.
#ifndef MICROREC_REC_USER_STORE_H_
#define MICROREC_REC_USER_STORE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "snapshot/codec.h"
#include "snapshot/mapped.h"
#include "snapshot/snapshot.h"
#include "util/status.h"

namespace microrec::rec {

/// FNV-1a basis and mixing of one 64-bit value into a running hash. A
/// store's fingerprint folds its rows' ascending (key, term fingerprint)
/// pairs; bag and graph headers bind it as the vocabulary fingerprint.
inline constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
uint64_t MixFingerprint(uint64_t h, uint64_t value);

/// FailedPrecondition "<origin>: vocabulary fingerprint mismatch (...)" when
/// `computed` != `expected`.
Status CheckVocabFingerprint(const std::string& origin, uint64_t expected,
                             uint64_t computed);

/// `snapshot.mapped_row_errors`: every failed row decode from a map (the
/// row degrades to absent) — observable, never silent.
obs::Counter* MappedRowErrorCounter();

/// Writes one row's fields in a container version's encoding. v1 is the
/// section Encoder's fixed-width, length-prefixed form. v2 rows are
/// self-contained byte strings: varint counts, zigzag-delta ids and raw
/// little-endian f64s (weights are incompressible entropy; ids and counts
/// are where the size lives).
class RowWriter {
 public:
  explicit RowWriter(snapshot::Encoder* v1) : v1_(v1) {}
  explicit RowWriter(std::string* v2) : v2_(v2) {}

  void Strings(const std::vector<std::string>& values);
  void U32s(const std::vector<uint32_t>& values);
  void U64(uint64_t value);
  /// v1 stores `ids` as u64s when `wide`, else as u32s.
  void Ids(const std::vector<uint64_t>& ids, bool wide);
  void F64s(const std::vector<double>& values);

 private:
  snapshot::Encoder* v1_ = nullptr;
  std::string* v2_ = nullptr;
};

/// Reads what RowWriter wrote. v2 errors name `origin` (file and row), the
/// field `what` and a row-relative offset; v1 errors carry the decoder's
/// absolute file offsets.
class RowReader {
 public:
  RowReader(snapshot::Decoder* v1, const std::string& origin)
      : v1_(v1), origin_(origin) {}
  RowReader(std::string_view v2, const std::string& origin)
      : v2_(v2), origin_(origin) {}

  const std::string& origin() const { return origin_; }

  Status Strings(std::vector<std::string>* values, const char* what);
  Status U32s(std::vector<uint32_t>* values, const char* what);
  Status U64(uint64_t* value, const char* what);
  Status Ids(std::vector<uint64_t>* ids, bool wide, const char* what);
  Status F64s(std::vector<double>* values, const char* what);
  /// A v2 row must be consumed exactly.
  Status End() const;

 private:
  /// Reads a v2 element count that must fit the rest of the row.
  Status Count(uint64_t* count, size_t min_item_bytes, const char* what);

  snapshot::Decoder* v1_ = nullptr;
  std::string_view v2_;
  size_t pos_ = 0;
  const std::string& origin_;
};

namespace internal {

/// Calls `fn(id, reader)` for every row of `section` (v1 or v2 per the
/// file's version); `origin(id)` names the row in errors.
Status ForEachRow(const snapshot::File& file, std::string_view section,
                  const std::function<std::string(uint64_t)>& origin,
                  const std::function<Status(uint64_t, RowReader*)>& fn);

}  // namespace internal

template <typename Key, typename Codec>
class UserStore {
 public:
  using Row = typename Codec::Row;

  explicit UserStore(Codec codec = Codec()) : codec_(std::move(codec)) {}

  /// The row for `key`, decoding it from the map on a miss (mapped mode).
  /// nullptr when the key is absent or invalidated, or when its mapped row
  /// fails to decode; a decode failure is counted and, when `error` is
  /// non-null, returned through it.
  Row* Find(const Key& key, Status* error = nullptr) {
    auto it = rows_.find(key);
    if (it != rows_.end()) {
      Entry& entry = it->second;
      if (entry.tracked) lru_.splice(lru_.end(), lru_, entry.lru);
      return &entry.row;
    }
    if (table_ == nullptr || invalidated_.count(key) > 0) return nullptr;
    return Materialize(key, error);
  }

  /// Holds `row` for `key`, pinned (replacing any held row).
  Row& Put(const Key& key, Row row) {
    Drop(key);
    return rows_.emplace(key, Entry{std::move(row)}).first->second.row;
  }

  /// Drops `key`'s row; in mapped mode the mapped row is never read again.
  void Invalidate(const Key& key) {
    Drop(key);
    if (table_ != nullptr) invalidated_.insert(key);
  }

  /// Serializes the rows in ascending key order as one section payload (v1
  /// or v2 per `codec`) and folds their fingerprint. FailedPrecondition
  /// naming `path` in mapped mode.
  Status Save(snapshot::SnapshotCodec codec, const std::string& path,
              std::string* payload, uint64_t* fingerprint) const {
    if (table_ != nullptr) {
      return Status::FailedPrecondition(
          "mapped engines are read-only; cannot save snapshot to " + path);
    }
    std::vector<Key> keys;
    keys.reserve(rows_.size());
    for (const auto& [key, entry] : rows_) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    const bool v2 = codec == snapshot::SnapshotCodec::kCompressed;
    snapshot::Encoder v1;
    snapshot::TableBuilder table;
    if (!v2) v1.PutU64(keys.size());
    uint64_t hash = kFnvBasis;
    for (const Key& key : keys) {
      std::string row;
      if (!v2) v1.PutU64(key);
      RowWriter out = v2 ? RowWriter(&row) : RowWriter(&v1);
      const uint64_t terms = codec_.Encode(rows_.at(key).row, &out);
      if (v2) MICROREC_RETURN_IF_ERROR(table.AddRow(key, row));
      hash = MixFingerprint(MixFingerprint(hash, key), terms);
    }
    *payload = v2 ? std::move(table).Finish() : v1.Release();
    *fingerprint = hash;
    return Status::OK();
  }

  /// A resident store holding every row of `section`. With
  /// `verify_fingerprint`, the rows' fingerprint must equal the header's
  /// vocabulary fingerprint.
  Result<UserStore> Loaded(const snapshot::File& file,
                           std::string_view section,
                           bool verify_fingerprint) const {
    UserStore out(codec_);
    uint64_t hash = kFnvBasis;
    MICROREC_RETURN_IF_ERROR(internal::ForEachRow(
        file, section,
        [&](uint64_t id) {
          return codec_.RowOrigin(file.origin(), section, id, false);
        },
        [&](uint64_t id, RowReader* in) {
          uint64_t terms = 0;
          Result<Row> row = codec_.Decode(in, &terms);
          if (!row.ok()) return row.status();
          out.rows_.insert_or_assign(static_cast<Key>(id),
                                     Entry{std::move(*row)});
          hash = MixFingerprint(MixFingerprint(hash, id), terms);
          return Status::OK();
        }));
    if (verify_fingerprint) {
      MICROREC_RETURN_IF_ERROR(CheckVocabFingerprint(
          file.origin(), file.header().vocab_fingerprint, hash));
    }
    return out;
  }

  /// A mapped store serving the v2 table `section` of `file` (which must
  /// outlive it), with at most `capacity` (>= 1) rows decoded from the map
  /// held at once.
  Result<UserStore> Mapped(const snapshot::MappedFile& file,
                           std::string_view section, size_t capacity) const {
    Result<snapshot::MappedTable> table =
        snapshot::MappedTable::Open(file, section);
    if (!table.ok()) return table.status();
    UserStore out(codec_);
    out.table_ = std::make_unique<snapshot::MappedTable>(std::move(*table));
    out.origin_ = file.origin();
    out.section_ = std::string(section);
    out.capacity_ = std::max<size_t>(1, capacity);
    return out;
  }

 private:
  struct Entry {
    Row row;
    // Decoded from the map (evictable), at `lru` in recency order.
    bool tracked = false;
    typename std::list<Key>::iterator lru{};
  };

  void Drop(const Key& key) {
    auto it = rows_.find(key);
    if (it == rows_.end()) return;
    if (it->second.tracked) lru_.erase(it->second.lru);
    rows_.erase(it);
  }

  Row* Materialize(const Key& key, Status* error) {
    const uint64_t id = static_cast<uint64_t>(key);
    bool found = false;
    std::string bytes;
    Status status = table_->Row(id, &found, &bytes);
    if (status.ok() && !found) return nullptr;
    if (status.ok()) {
      const std::string origin = codec_.RowOrigin(origin_, section_, id, true);
      RowReader in(bytes, origin);
      uint64_t terms = 0;
      Result<Row> row = codec_.Decode(&in, &terms);
      if (row.ok()) {
        Entry& entry =
            rows_.emplace(key, Entry{std::move(*row), true}).first->second;
        entry.lru = lru_.insert(lru_.end(), key);
        if (lru_.size() > capacity_) {
          rows_.erase(lru_.front());
          lru_.pop_front();
        }
        return &entry.row;
      }
      status = row.status();
    }
    MappedRowErrorCounter()->Increment();
    if (error != nullptr) *error = status;
    return nullptr;
  }

  Codec codec_;
  std::unordered_map<Key, Entry> rows_;
  std::list<Key> lru_;  // tracked keys, front = least recent

  // Mapped mode.
  std::unique_ptr<snapshot::MappedTable> table_;
  std::string origin_;
  std::string section_;
  size_t capacity_ = 1;
  std::unordered_set<Key> invalidated_;
};

}  // namespace microrec::rec

#endif  // MICROREC_REC_USER_STORE_H_
