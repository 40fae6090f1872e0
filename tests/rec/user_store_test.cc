// The user-model store on its own, with a minimal codec: v1/v2 round trips,
// the mapped LRU (eviction re-decodes the same row; rows put in memory are
// pinned), invalidation (a stale mapped row is never read again), the
// read-only refusal and the counted row-error path.
#include "rec/user_store.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "snapshot/mapped.h"
#include "snapshot/snapshot.h"
#include "testing/scratch_dir.h"
#include "testing/status_matchers.h"

namespace microrec::rec {
namespace {

// One f64 vector per key; counts every decode so tests can tell a held row
// from a re-materialized one.
struct CountingCodec {
  using Row = std::vector<double>;

  std::shared_ptr<int> decodes = std::make_shared<int>(0);

  uint64_t Encode(const Row& row, RowWriter* out) const {
    out->F64s(row);
    return static_cast<uint64_t>(row.size());
  }

  Result<Row> Decode(RowReader* in, uint64_t* term_fingerprint) const {
    ++*decodes;
    Row row;
    MICROREC_RETURN_IF_ERROR(in->F64s(&row, "values"));
    MICROREC_RETURN_IF_ERROR(in->End());
    *term_fingerprint = static_cast<uint64_t>(row.size());
    return row;
  }

  std::string RowOrigin(const std::string& file_origin, std::string_view,
                        uint64_t id, bool /*mapped*/) const {
    return file_origin + ": test row " + std::to_string(id);
  }
};

using Store = UserStore<uint32_t, CountingCodec>;

class UserStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (uint32_t key : {1u, 2u, 3u}) {
      source_.Put(key, {key * 1.0, key * 0.5, -1.0 * key});
    }
  }

  /// Writes `source_` as section "rows" of a snapshot under `codec`, with
  /// the rows' fingerprint (xor `fingerprint_xor`) in the header.
  std::string Write(snapshot::SnapshotCodec codec, const std::string& name,
                    uint64_t fingerprint_xor = 0) {
    std::string payload;
    uint64_t fingerprint = 0;
    EXPECT_OK(source_.Save(codec, name, &payload, &fingerprint));
    snapshot::Header header;
    header.vocab_fingerprint = fingerprint ^ fingerprint_xor;
    snapshot::Writer writer(header);
    writer.set_codec(codec);
    writer.AddSection("rows", std::move(payload));
    const std::string path = scratch_.File(name);
    EXPECT_OK(writer.Commit(path));
    return path;
  }

  /// A store mapped over section "rows" of `file`.
  Store MapFresh(const snapshot::MappedFile& file, size_t capacity) {
    Result<Store> mapped = Store().Mapped(file, "rows", capacity);
    EXPECT_OK(mapped);
    return std::move(*mapped);
  }

  testutil::ScratchDir scratch_{"microrec_user_store"};
  Store source_;
};

TEST_F(UserStoreTest, ResidentLoadRoundTripsBothEncodings) {
  for (snapshot::SnapshotCodec codec :
       {snapshot::SnapshotCodec::kRaw, snapshot::SnapshotCodec::kCompressed}) {
    SCOPED_TRACE(snapshot::SnapshotCodecName(codec));
    Result<snapshot::File> file =
        snapshot::File::Load(Write(codec, "rows.snap"));
    ASSERT_OK(file);
    Result<Store> loaded =
        Store().Loaded(*file, "rows", /*verify_fingerprint=*/true);
    ASSERT_OK(loaded);
    for (uint32_t key : {1u, 2u, 3u}) {
      ASSERT_NE(loaded->Find(key), nullptr);
      EXPECT_EQ(*loaded->Find(key), *source_.Find(key));
    }
    EXPECT_EQ(loaded->Find(4), nullptr);
  }
}

TEST_F(UserStoreTest, FingerprintMismatchIsRejected) {
  Result<snapshot::File> file = snapshot::File::Load(Write(
      snapshot::SnapshotCodec::kRaw, "rows.snap", /*fingerprint_xor=*/1));
  ASSERT_OK(file);
  Result<Store> loaded =
      Store().Loaded(*file, "rows", /*verify_fingerprint=*/true);
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_OK(Store().Loaded(*file, "rows", /*verify_fingerprint=*/false));
}

TEST_F(UserStoreTest, EvictionRematerializesAnIdenticalRow) {
  Result<snapshot::MappedFile> file = snapshot::MappedFile::Open(
      Write(snapshot::SnapshotCodec::kCompressed, "rows.snap"));
  ASSERT_OK(file);
  CountingCodec codec;
  Result<Store> mapped = Store(codec).Mapped(*file, "rows", /*capacity=*/1);
  ASSERT_OK(mapped);
  Store& store = *mapped;
  ASSERT_NE(store.Find(1), nullptr);
  const std::vector<double> first = *store.Find(1);
  EXPECT_EQ(first, *source_.Find(1));
  EXPECT_EQ(*codec.decodes, 1);  // the second lookup was a hit
  ASSERT_NE(store.Find(2), nullptr);
  const std::vector<double>* again = store.Find(1);
  EXPECT_EQ(*codec.decodes, 3);  // key 1 was evicted and decoded again
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(*again, first);
}

TEST_F(UserStoreTest, BuiltRowsAreNeverEvicted) {
  Result<snapshot::MappedFile> file = snapshot::MappedFile::Open(
      Write(snapshot::SnapshotCodec::kCompressed, "rows.snap"));
  ASSERT_OK(file);
  CountingCodec codec;
  Result<Store> mapped = Store(codec).Mapped(*file, "rows", /*capacity=*/1);
  ASSERT_OK(mapped);
  Store& store = *mapped;
  const std::vector<double> built = {9.0, 9.5};
  store.Put(9, built);
  for (uint32_t key : {1u, 2u, 3u, 1u}) ASSERT_NE(store.Find(key), nullptr);
  const int decodes = *codec.decodes;
  ASSERT_NE(store.Find(9), nullptr);
  EXPECT_EQ(*store.Find(9), built);
  EXPECT_EQ(*codec.decodes, decodes);
}

TEST_F(UserStoreTest, InvalidatedKeyIsNeverReadFromTheMap) {
  Result<snapshot::MappedFile> file = snapshot::MappedFile::Open(
      Write(snapshot::SnapshotCodec::kCompressed, "rows.snap"));
  ASSERT_OK(file);
  CountingCodec codec;
  Result<Store> mapped = Store(codec).Mapped(*file, "rows", /*capacity=*/4);
  ASSERT_OK(mapped);
  Store& store = *mapped;
  ASSERT_NE(store.Find(2), nullptr);
  EXPECT_EQ(*codec.decodes, 1);
  store.Invalidate(2);
  EXPECT_EQ(store.Find(2), nullptr);
  EXPECT_EQ(*codec.decodes, 1);
  // A rebuilt row is served; invalidating it again still never falls back
  // to the stale mapped bytes.
  store.Put(2, {7.0});
  ASSERT_NE(store.Find(2), nullptr);
  EXPECT_EQ(*store.Find(2), std::vector<double>{7.0});
  store.Invalidate(2);
  EXPECT_EQ(store.Find(2), nullptr);
  EXPECT_EQ(*codec.decodes, 1);
}

TEST_F(UserStoreTest, MappedStoreRefusesSave) {
  Result<snapshot::MappedFile> file = snapshot::MappedFile::Open(
      Write(snapshot::SnapshotCodec::kCompressed, "rows.snap"));
  ASSERT_OK(file);
  Store store = MapFresh(*file, 4);
  std::string payload;
  uint64_t fingerprint = 0;
  Status saved = store.Save(snapshot::SnapshotCodec::kCompressed, "out.snap",
                            &payload, &fingerprint);
  EXPECT_EQ(saved.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(saved.message().find("out.snap"), std::string::npos);
}

TEST_F(UserStoreTest, CorruptMappedRowIsCountedAndReported) {
  // A row whose element count overruns it: the table and its CRCs are
  // valid, only the row decode fails.
  snapshot::TableBuilder table;
  std::string bad;
  snapshot::PutVarint(&bad, 1000);
  ASSERT_OK(table.AddRow(5, bad));
  snapshot::Writer writer(snapshot::Header{});
  writer.set_codec(snapshot::SnapshotCodec::kCompressed);
  writer.AddSection("rows", std::move(table).Finish());
  const std::string path = scratch_.File("bad.snap");
  ASSERT_OK(writer.Commit(path));
  Result<snapshot::MappedFile> file = snapshot::MappedFile::Open(path);
  ASSERT_OK(file);
  Store store = MapFresh(*file, 4);

  obs::Counter* errors = MappedRowErrorCounter();
  const uint64_t before = errors->value();
  Status error;
  EXPECT_EQ(store.Find(5, &error), nullptr);
  EXPECT_EQ(error.code(), StatusCode::kDataLoss);
  EXPECT_NE(error.message().find(path + ": test row 5"), std::string::npos)
      << error.ToString();
  EXPECT_EQ(errors->value(), before + 1);
  EXPECT_EQ(store.Find(5), nullptr);  // counted again, not cached
  EXPECT_EQ(errors->value(), before + 2);
  EXPECT_EQ(store.Find(6), nullptr);  // absent is not an error
  EXPECT_EQ(errors->value(), before + 2);
}

}  // namespace
}  // namespace microrec::rec
