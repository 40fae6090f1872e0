#include "rec/engine.h"

#include <algorithm>
#include <unordered_set>

#include "bag/bag_model.h"
#include "corpus/sources.h"
#include "graph/graph_model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rec/llda_labels.h"
#include "rec/user_store.h"
#include "snapshot/codec.h"
#include "snapshot/mapped.h"
#include "snapshot/snapshot.h"
#include "topic/btm.h"
#include "topic/hdp.h"
#include "topic/hlda.h"
#include "topic/lda.h"
#include "topic/llda.h"
#include "topic/plsa.h"
#include "topic/topic_model.h"

namespace microrec::rec {

namespace {

using corpus::TweetId;
using corpus::UserId;

int ScaledIterations(int iterations, double scale) {
  return std::max(5, static_cast<int>(static_cast<double>(iterations) *
                                      scale));
}

// Scoring-latency histogram shared by every engine family (ETime's unit of
// work); per-family attribution comes from the trace spans around scoring.
obs::Histogram* ScoreHistogram() {
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram("rec.engine.score_seconds");
  return histogram;
}

obs::Histogram* BuildUserHistogram() {
  static obs::Histogram* histogram = obs::MetricsRegistry::Global().GetHistogram(
      "rec.engine.build_user_seconds");
  return histogram;
}

obs::Counter* ScoreCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("rec.engine.scores");
  return counter;
}

obs::Counter* WarmStartCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("snapshot.warm_starts");
  return counter;
}

obs::Counter* WarmMissCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("snapshot.warm_miss");
  return counter;
}

// ---- Shared snapshot plumbing. ----

std::vector<std::string> VocabTerms(const text::Vocabulary& vocab) {
  std::vector<std::string> terms;
  terms.reserve(vocab.size());
  for (size_t i = 0; i < vocab.size(); ++i) {
    terms.push_back(vocab.TermOf(static_cast<text::TermId>(i)));
  }
  return terms;
}

// `File` is a snapshot::File or a snapshot::MappedFile.
template <typename File>
Status VerifyIdentity(const File& file, const ModelConfig& config,
                      const EngineContext& ctx) {
  return file.VerifyIdentity(std::string(ModelKindName(config.kind)),
                             std::string(corpus::SourceName(ctx.source)),
                             ctx.seed, ctx.iteration_scale,
                             config.Fingerprint());
}

void SaveRngState(const Rng& rng, snapshot::Encoder* enc) {
  Rng::State state = rng.SaveState();
  enc->PutU64(state.state);
  enc->PutU64(state.inc);
  enc->PutU8(state.has_cached_normal ? 1 : 0);
  enc->PutF64(state.cached_normal);
}

Status LoadRngState(snapshot::Decoder* dec, Rng* rng) {
  Rng::State state;
  uint8_t has_cached = 0;
  MICROREC_RETURN_IF_ERROR(dec->ReadU64(&state.state));
  MICROREC_RETURN_IF_ERROR(dec->ReadU64(&state.inc));
  MICROREC_RETURN_IF_ERROR(dec->ReadU8(&has_cached));
  MICROREC_RETURN_IF_ERROR(dec->ReadF64(&state.cached_normal));
  MICROREC_RETURN_IF_ERROR(dec->ExpectEnd());
  state.has_cached_normal = has_cached != 0;
  rng->RestoreState(state);
  return Status::OK();
}

// Mapped counterpart of File::OpenSection: copies the section's logical
// bytes into `*bytes` and decodes them with the section's file offset.
Result<snapshot::Decoder> OpenMappedSection(const snapshot::MappedFile& file,
                                            std::string_view name,
                                            std::string* bytes) {
  Result<const snapshot::MappedFile::MappedSection*> section = file.Find(name);
  if (!section.ok()) return section.status();
  MICROREC_RETURN_IF_ERROR(file.ReadSection(name, bytes));
  return snapshot::Decoder(*bytes, (*section)->payload_offset);
}

// Moves a successful result into `*out`, which an error leaves untouched.
template <typename T>
Status Adopt(Result<T> result, T* out) {
  if (!result.ok()) return result.status();
  *out = std::move(*result);
  return Status::OK();
}

// ---- Persistence shared by every family. ----
//
// Prepare()'s warm-start preamble, identity verification, the warm-start
// counter, and OpenMapped()'s resident fallback for v1 files (whose
// sections have no random-access row index). Families restore their own
// tables — all of them UserStores — in LoadState() and MapState().
class PersistentEngine : public Engine {
 public:
  explicit PersistentEngine(const ModelConfig& config) : config_(config) {}

  Status LoadSnapshot(const std::string& path,
                      const EngineContext& ctx) final {
    Result<snapshot::File> file = snapshot::File::Load(path);
    if (!file.ok()) return file.status();
    MICROREC_RETURN_IF_ERROR(VerifyIdentity(*file, config_, ctx));
    MICROREC_RETURN_IF_ERROR(LoadState(*file, ctx));
    WarmStartCounter()->Increment();
    return Status::OK();
  }

  Status OpenMapped(const std::string& path,
                    const EngineContext& ctx) final {
    Result<snapshot::MappedFile> file = snapshot::MappedFile::Open(path);
    if (!file.ok()) return file.status();
    // Serve a v1 file resident with identical rankings (the memory win
    // needs v2).
    if (file->version() == 1) return LoadSnapshot(path, ctx);
    MICROREC_RETURN_IF_ERROR(VerifyIdentity(*file, config_, ctx));
    auto owned = std::make_unique<snapshot::MappedFile>(std::move(*file));
    MICROREC_RETURN_IF_ERROR(MapState(*owned, ctx));
    mapped_file_ = std::move(owned);
    WarmStartCounter()->Increment();
    return Status::OK();
  }

 protected:
  /// Prepare()'s warm start from ctx.warm_start_snapshot (LoadSnapshot, or
  /// OpenMapped under ServeMode::kMmap). True when state was restored and
  /// training is skipped; false without a snapshot or when the file is
  /// missing (a counted warm miss: train cold). Other failures propagate.
  Result<bool> WarmStart(const EngineContext& ctx) {
    if (ctx.warm_start_snapshot.empty()) return false;
    Status loaded = ctx.serve_mode == ServeMode::kMmap
                        ? OpenMapped(ctx.warm_start_snapshot, ctx)
                        : LoadSnapshot(ctx.warm_start_snapshot, ctx);
    if (loaded.ok()) return true;
    if (loaded.code() != StatusCode::kNotFound) return loaded;
    WarmMissCounter()->Increment();
    return false;
  }

  /// A writer carrying this engine's identity header and ctx's codec.
  snapshot::Writer NewWriter(const EngineContext& ctx,
                             uint64_t vocab_fingerprint) const {
    snapshot::Header header;
    header.model = std::string(ModelKindName(config_.kind));
    header.source = std::string(corpus::SourceName(ctx.source));
    header.seed = ctx.seed;
    header.iteration_scale = ctx.iteration_scale;
    header.config_fingerprint = config_.Fingerprint();
    header.vocab_fingerprint = vocab_fingerprint;
    snapshot::Writer writer(std::move(header));
    writer.set_codec(ctx.snapshot_codec);
    return writer;
  }

  /// Restores the family's state from a verified resident file.
  virtual Status LoadState(const snapshot::File& file,
                           const EngineContext& ctx) = 0;
  /// Serves the family's tables from a verified v2 mapping, which outlives
  /// them.
  virtual Status MapState(const snapshot::MappedFile& file,
                          const EngineContext& ctx) = 0;

  /// The open mapping; nullptr unless OpenMapped() served a v2 file.
  const snapshot::MappedFile* mapped_file() const {
    return mapped_file_.get();
  }

  ModelConfig config_;

 private:
  // A base member, so it is destroyed after the derived classes' stores
  // whose mapped tables view its pages.
  std::unique_ptr<snapshot::MappedFile> mapped_file_;
};

// Bag and graph engines persist nothing but their user models: everything
// about them except building and scoring a model lives here.
template <typename Codec>
class UserModelEngine : public PersistentEngine {
 public:
  UserModelEngine(const ModelConfig& config, Codec codec)
      : PersistentEngine(config), users_(std::move(codec)) {}

  Status Prepare(const EngineContext& ctx) override {
    return WarmStart(ctx).status();
  }

  void InvalidateUser(UserId u) override { users_.Invalidate(u); }

  Status SaveSnapshot(const std::string& path,
                      const EngineContext& ctx) const override {
    std::string users;
    uint64_t fingerprint = 0;
    MICROREC_RETURN_IF_ERROR(
        users_.Save(ctx.snapshot_codec, path, &users, &fingerprint));
    // The header's vocabulary fingerprint binds the sorted (user id,
    // per-user vocabulary fingerprint) sequence.
    snapshot::Writer writer = NewWriter(ctx, fingerprint);
    writer.AddSection("users", std::move(users));
    return writer.Commit(path);
  }

 protected:
  Status LoadState(const snapshot::File& file,
                   const EngineContext& /*ctx*/) override {
    return Adopt(users_.Loaded(file, "users", /*verify_fingerprint=*/true),
                 &users_);
  }

  Status MapState(const snapshot::MappedFile& file,
                  const EngineContext& ctx) override {
    return Adopt(users_.Mapped(file, "users", ctx.mapped_user_cache),
                 &users_);
  }

  // Profile() and Kernel() are const but may materialize a mapped row.
  mutable UserStore<UserId, Codec> users_;
};

// ---- Bag engine (TN / CN). ----

struct BagUser {
  bag::BagModeler modeler;
  bag::SparseVector vector;
};

// A bag row: the user's fitted vocabulary, document frequencies and train
// document count, then her profile vector. Its term fingerprint is over the
// vocabulary.
class BagCodec {
 public:
  using Row = BagUser;

  explicit BagCodec(const bag::BagConfig& config) : config_(config) {}

  uint64_t Encode(const Row& row, RowWriter* out) const {
    std::vector<std::string> terms = VocabTerms(row.modeler.vocabulary());
    std::vector<uint64_t> vec_terms;
    std::vector<double> vec_weights;
    vec_terms.reserve(row.vector.size());
    vec_weights.reserve(row.vector.size());
    for (const auto& [term, weight] : row.vector.entries()) {
      vec_terms.push_back(term);
      vec_weights.push_back(weight);
    }
    out->Strings(terms);
    out->U32s(row.modeler.doc_frequencies());
    out->U64(row.modeler.num_train_docs());
    out->Ids(vec_terms, /*wide=*/false);
    out->F64s(vec_weights);
    return snapshot::FingerprintTerms(terms);
  }

  Result<Row> Decode(RowReader* in, uint64_t* term_fingerprint) const {
    std::vector<std::string> terms;
    std::vector<uint32_t> df;
    uint64_t num_train_docs = 0;
    std::vector<uint64_t> vec_terms;
    std::vector<double> vec_weights;
    MICROREC_RETURN_IF_ERROR(in->Strings(&terms, "terms"));
    MICROREC_RETURN_IF_ERROR(in->U32s(&df, "document frequencies"));
    MICROREC_RETURN_IF_ERROR(in->U64(&num_train_docs, "train doc count"));
    MICROREC_RETURN_IF_ERROR(
        in->Ids(&vec_terms, /*wide=*/false, "vector term ids"));
    MICROREC_RETURN_IF_ERROR(in->F64s(&vec_weights, "vector weights"));
    MICROREC_RETURN_IF_ERROR(in->End());
    const std::string& who = in->origin();
    for (uint64_t t : vec_terms) {
      if (t > UINT32_MAX) {
        return Status::DataLoss(who + ": vector term id " +
                                std::to_string(t) + " exceeds 32 bits");
      }
    }
    if (df.size() > terms.size()) {
      return Status::InvalidArgument(
          who + " has " + std::to_string(df.size()) +
          " document frequencies for " + std::to_string(terms.size()) +
          " terms");
    }
    if (vec_terms.size() != vec_weights.size()) {
      return Status::InvalidArgument(
          who + " vector has mismatched term/weight counts");
    }
    std::vector<bag::SparseVector::Entry> entries;
    entries.reserve(vec_terms.size());
    for (size_t e = 0; e < vec_terms.size(); ++e) {
      if (vec_terms[e] >= terms.size()) {
        return Status::InvalidArgument(
            who + " vector references term " + std::to_string(vec_terms[e]) +
            " outside vocabulary of " + std::to_string(terms.size()));
      }
      entries.emplace_back(static_cast<bag::TermId>(vec_terms[e]),
                           vec_weights[e]);
    }
    BagUser user{bag::BagModeler(config_), {}};
    user.modeler.RestoreFitted(terms, std::move(df), num_train_docs);
    user.vector = bag::SparseVector::FromUnsorted(std::move(entries));
    *term_fingerprint = snapshot::FingerprintTerms(terms);
    return user;
  }

  std::string RowOrigin(const std::string& file_origin, std::string_view,
                        uint64_t id, bool /*mapped*/) const {
    return file_origin + ": bag user " + std::to_string(id);
  }

 private:
  bag::BagConfig config_;
};

class BagEngine : public UserModelEngine<BagCodec>,
                  public SparseProfileScorer {
 public:
  explicit BagEngine(const ModelConfig& config)
      : UserModelEngine(config, BagCodec(config.bag)), kernel_(config.bag) {}

  SparseProfileScorer* sparse_scorer() override { return this; }

  const bag::SparseVector* Profile(UserId u) const override {
    const BagUser* user = users_.Find(u);
    return user == nullptr ? nullptr : &user->vector;
  }

  bag::SparseVector Embed(UserId u, TweetId d,
                          const EngineContext& ctx) override {
    BagUser* user = users_.Find(u);
    if (user == nullptr) return {};
    return user->modeler.EmbedDocument(ctx.pre->Filtered(d));
  }

  double Kernel(UserId u, const bag::SparseVector& profile,
                const bag::SparseVector& doc) const override {
    (void)u;
    return kernel_.Score(profile, doc);
  }

  Status BuildUser(UserId u, const corpus::LabeledTrainSet& train,
                   const EngineContext& ctx) override {
    // Held, or materialized from the map: nothing to build. Decode
    // corruption surfaces here as a Status instead of being deferred to a
    // scoring path that cannot return one.
    Status error;
    if (users_.Find(u, &error) != nullptr) return Status::OK();
    MICROREC_RETURN_IF_ERROR(error);
    obs::ScopedHistogramTimer timer(BuildUserHistogram());
    BagUser user{bag::BagModeler(config_.bag), {}};
    std::vector<bag::TokenDoc> docs;
    docs.reserve(train.docs.size());
    for (TweetId id : train.docs) docs.push_back(ctx.pre->Filtered(id));
    user.modeler.Fit(docs);
    user.vector = user.modeler.BuildUserVector(docs, train.positive);
    users_.Put(u, std::move(user));
    return Status::OK();
  }

  double Score(UserId u, TweetId d, const EngineContext& ctx) override {
    obs::ScopedHistogramTimer timer(ScoreHistogram());
    ScoreCounter()->Increment();
    BagUser* user = users_.Find(u);
    if (user == nullptr) return 0.0;  // absent, or a corrupt row (counted)
    bag::SparseVector doc = user->modeler.EmbedDocument(ctx.pre->Filtered(d));
    return user->modeler.Score(user->vector, doc);
  }

 private:
  // BagModeler::Score reads only the configuration, so one unfitted modeler
  // is every user's kernel — pure and safe on shard threads.
  const bag::BagModeler kernel_;
};

// ---- Graph engine (TNG / CNG). ----

struct GraphUser {
  graph::GraphModeler modeler;
  graph::NgramGraph graph;
};

// A graph row: the user's vocabulary, then her edges sorted by canonical
// key so the same graph always serializes to the same bytes (unordered_map
// order is process-dependent); in v2 sorted keys delta-encode down to a few
// bytes each (the packed term ids of adjacent edges share their high
// halves). Its term fingerprint is over the vocabulary.
class GraphCodec {
 public:
  using Row = GraphUser;

  explicit GraphCodec(const graph::GraphConfig& config) : config_(config) {}

  uint64_t Encode(const Row& row, RowWriter* out) const {
    std::vector<std::string> terms = VocabTerms(row.modeler.vocabulary());
    std::vector<uint64_t> keys;
    keys.reserve(row.graph.size());
    for (const auto& [key, weight] : row.graph.edges()) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    std::vector<double> weights;
    weights.reserve(keys.size());
    for (uint64_t key : keys) weights.push_back(row.graph.edges().at(key));
    out->Strings(terms);
    out->Ids(keys, /*wide=*/true);
    out->F64s(weights);
    return snapshot::FingerprintTerms(terms);
  }

  Result<Row> Decode(RowReader* in, uint64_t* term_fingerprint) const {
    std::vector<std::string> terms;
    std::vector<uint64_t> keys;
    std::vector<double> weights;
    MICROREC_RETURN_IF_ERROR(in->Strings(&terms, "terms"));
    MICROREC_RETURN_IF_ERROR(in->Ids(&keys, /*wide=*/true, "edge keys"));
    MICROREC_RETURN_IF_ERROR(in->F64s(&weights, "edge weights"));
    MICROREC_RETURN_IF_ERROR(in->End());
    const std::string& who = in->origin();
    if (keys.size() != weights.size()) {
      return Status::InvalidArgument(
          who + " has mismatched edge key/weight counts");
    }
    GraphUser user{graph::GraphModeler(config_), {}};
    user.modeler.RestoreVocabulary(terms);
    for (size_t e = 0; e < keys.size(); ++e) {
      uint32_t a = static_cast<uint32_t>(keys[e] >> 32);
      uint32_t b = static_cast<uint32_t>(keys[e] & 0xFFFFFFFFu);
      if (a >= terms.size() || b >= terms.size()) {
        return Status::InvalidArgument(
            who + " edge references term outside vocabulary of " +
            std::to_string(terms.size()));
      }
      user.graph.AddEdgeByKey(keys[e], weights[e]);
    }
    *term_fingerprint = snapshot::FingerprintTerms(terms);
    return user;
  }

  std::string RowOrigin(const std::string& file_origin, std::string_view,
                        uint64_t id, bool /*mapped*/) const {
    return file_origin + ": graph user " + std::to_string(id);
  }

 private:
  graph::GraphConfig config_;
};

class GraphEngine : public UserModelEngine<GraphCodec> {
 public:
  explicit GraphEngine(const ModelConfig& config)
      : UserModelEngine(config, GraphCodec(config.graph)) {}

  Status BuildUser(UserId u, const corpus::LabeledTrainSet& train,
                   const EngineContext& ctx) override {
    Status error;
    if (users_.Find(u, &error) != nullptr) return Status::OK();
    MICROREC_RETURN_IF_ERROR(error);
    obs::ScopedHistogramTimer timer(BuildUserHistogram());
    GraphUser user{graph::GraphModeler(config_.graph), {}};
    std::vector<std::vector<std::string>> docs;
    docs.reserve(train.docs.size());
    for (TweetId id : train.docs) docs.push_back(ctx.pre->Filtered(id));
    user.graph = user.modeler.BuildUserGraph(docs);
    users_.Put(u, std::move(user));
    return Status::OK();
  }

  double Score(UserId u, TweetId d, const EngineContext& ctx) override {
    obs::ScopedHistogramTimer timer(ScoreHistogram());
    ScoreCounter()->Increment();
    GraphUser* user = users_.Find(u);
    if (user == nullptr) return 0.0;  // absent, or a corrupt row (counted)
    graph::NgramGraph doc = user->modeler.BuildDocGraph(ctx.pre->Filtered(d));
    return user->modeler.Score(user->graph, doc);
  }
};

// ---- Topic engine (LDA, LLDA, HDP, HLDA, BTM, PLSA). ----

// A topic distribution keyed by user (the user models) or by tweet (the
// inference cache): one f64 vector, no term fingerprint (the vocabulary
// section carries the topic engine's).
struct DistCodec {
  using Row = std::vector<double>;

  /// Names a mapped row in errors ("topic user", "cached inference").
  const char* label = "";

  uint64_t Encode(const Row& row, RowWriter* out) const {
    out->F64s(row);
    return 0;
  }

  Result<Row> Decode(RowReader* in, uint64_t* /*term_fingerprint*/) const {
    Row dist;
    MICROREC_RETURN_IF_ERROR(in->F64s(&dist, "distribution"));
    MICROREC_RETURN_IF_ERROR(in->End());
    return dist;
  }

  // A resident load names the section row; a mapped read names the key.
  std::string RowOrigin(const std::string& file_origin,
                        std::string_view section, uint64_t id,
                        bool mapped) const {
    if (mapped) return file_origin + ": " + label + " " + std::to_string(id);
    return file_origin + ":section \"" + std::string(section) + "\" row " +
           std::to_string(id);
  }
};

class TopicEngine : public PersistentEngine {
 public:
  explicit TopicEngine(const ModelConfig& config)
      : PersistentEngine(config),
        rng_(0xABCD),
        users_(DistCodec{"topic user"}),
        infer_(DistCodec{"cached inference"}) {}

  Status Prepare(const EngineContext& ctx) override {
    MICROREC_SPAN("topic_prepare");
    Result<bool> warmed = WarmStart(ctx);
    if (!warmed.ok()) return warmed.status();
    if (*warmed) return Status::OK();
    rng_ = Rng(ctx.seed, streams::kTopicEngine);
    const auto& pre = *ctx.pre;
    const TopicRunConfig& tc = config_.topic;

    // Union of every user's training tweets for this source.
    std::vector<TweetId> train_ids;
    {
      std::unordered_set<TweetId> seen;
      for (UserId u : *ctx.users) {
        for (TweetId id : ctx.train_set(u).docs) {
          if (seen.insert(id).second) train_ids.push_back(id);
        }
      }
      std::sort(train_ids.begin(), train_ids.end());
    }
    if (train_ids.empty()) {
      return Status::FailedPrecondition("no training tweets for source");
    }

    // Pool into pseudo-documents and assemble the DocSet from the
    // stop-filtered tokens.
    std::vector<corpus::PooledDoc> pooled = corpus::PoolTweets(
        pre.corpus(), pre.tokenized(), train_ids, tc.pooling);
    std::unique_ptr<LldaLabelScheme> labels;
    if (config_.kind == ModelKind::kLLDA) {
      labels = std::make_unique<LldaLabelScheme>(LldaLabelScheme::Build(
          pre.tokenized(), train_ids, ctx.llda_min_hashtag_count));
    }
    for (const corpus::PooledDoc& doc : pooled) {
      std::vector<std::string> tokens;
      std::vector<uint32_t> doc_labels;
      std::unordered_set<uint32_t> label_set;
      for (TweetId id : doc.members) {
        const auto& filtered = pre.Filtered(id);
        tokens.insert(tokens.end(), filtered.begin(), filtered.end());
        if (labels != nullptr) {
          for (uint32_t label : labels->LabelsFor(
                   id, pre.Tokens(id), pre.corpus().tweet(id).text)) {
            if (label_set.insert(label).second) doc_labels.push_back(label);
          }
        }
      }
      size_t index = docs_.AddDocument(tokens);
      if (labels != nullptr) docs_.SetLabels(index, std::move(doc_labels));
    }

    auto& registry = obs::MetricsRegistry::Global();
    registry.GetGauge("topic.docset.vocab_size")
        ->Set(static_cast<double>(docs_.vocab_size()));
    registry.GetGauge("topic.docset.docs")
        ->Set(static_cast<double>(docs_.num_docs()));
    registry.GetGauge("topic.docset.tokens")
        ->Set(static_cast<double>(docs_.total_tokens()));

    MICROREC_RETURN_IF_ERROR(
        MakeModel(ctx, labels != nullptr ? labels->num_labels() : 0));
    return model_->Train(docs_, &rng_);
  }

  Status BuildUser(UserId u, const corpus::LabeledTrainSet& train,
                   const EngineContext& ctx) override {
    Status error;
    if (users_.Find(u, &error) != nullptr) return Status::OK();
    MICROREC_RETURN_IF_ERROR(error);
    // Not held and not in the snapshot: fold-in inference needs the model.
    MICROREC_RETURN_IF_ERROR(EnsureModel(ctx));
    obs::ScopedHistogramTimer timer(BuildUserHistogram());
    // Documents with no vocabulary evidence (all words unseen in training)
    // carry no topical information and are excluded from the aggregate.
    fold_in_error_ = Status::OK();
    std::vector<std::vector<double>> dists;
    std::vector<bool> labels;
    dists.reserve(train.docs.size());
    for (size_t i = 0; i < train.docs.size(); ++i) {
      const std::vector<double>& dist = Infer(train.docs[i], ctx);
      if (dist.empty()) continue;
      dists.push_back(dist);
      labels.push_back(train.positive[i]);
    }
    users_.Put(u, topic::AggregateDistributions(
                      dists, labels,
                      config_.topic.aggregation == TopicAggregation::kRocchio));
    return fold_in_error_;
  }

  void InvalidateUser(UserId u) override { users_.Invalidate(u); }

  double Score(UserId u, TweetId d, const EngineContext& ctx) override {
    obs::ScopedHistogramTimer timer(ScoreHistogram());
    ScoreCounter()->Increment();
    // nullptr: absent, or a corrupt row (counted).
    const std::vector<double>* user = users_.Find(u);
    if (user == nullptr || user->empty()) return 0.0;
    const std::vector<double>& doc = Infer(d, ctx);
    // No known words -> no evidence of relevance.
    if (doc.empty()) return 0.0;
    return topic::TopicCosine(*user, doc);
  }

  Status SaveSnapshot(const std::string& path,
                      const EngineContext& ctx) const override {
    std::string users, infer_cache;
    uint64_t unused = 0;
    MICROREC_RETURN_IF_ERROR(
        users_.Save(ctx.snapshot_codec, path, &users, &unused));
    MICROREC_RETURN_IF_ERROR(
        infer_.Save(ctx.snapshot_codec, path, &infer_cache, &unused));
    if (model_ == nullptr) {
      return Status::FailedPrecondition("SaveSnapshot() before Prepare()");
    }
    std::vector<std::string> terms = docs_.Terms();
    snapshot::Writer writer =
        NewWriter(ctx, snapshot::FingerprintTerms(terms));
    {
      snapshot::Encoder enc;
      enc.PutVecString(terms);
      writer.AddSection("vocab", enc.Release());
    }
    {
      // The model section keeps its v1 inner encoding in both codecs: a
      // trained phi is topic-major with long runs of the identical
      // smoothing value for zero-count words, which the v2 block
      // compression collapses without a bespoke encoding.
      snapshot::Encoder enc;
      model_->SaveState(&enc);
      writer.AddSection("model", enc.Release());
    }
    {
      // Generator state as of now: a warm-started engine resumes the draw
      // sequence exactly where this one left off, so inference it performs
      // after loading is bit-identical to inference this one would perform.
      snapshot::Encoder enc;
      SaveRngState(rng_, &enc);
      writer.AddSection("rng", enc.Release());
    }
    writer.AddSection("users", std::move(users));
    // The inference cache makes warm scoring of already-seen tweets a
    // lookup instead of a Gibbs fold-in — this is what turns
    // train-once/recommend-many into milliseconds per query.
    writer.AddSection("infer_cache", std::move(infer_cache));
    return writer.Commit(path);
  }

 protected:
  Status LoadState(const snapshot::File& file,
                   const EngineContext& ctx) override {
    Result<snapshot::Decoder> vocab = file.OpenSection("vocab");
    if (!vocab.ok()) return vocab.status();
    MICROREC_RETURN_IF_ERROR(RestoreVocabulary(
        &*vocab, file.origin(), file.header().vocab_fingerprint, ctx));
    Result<snapshot::Decoder> model = file.OpenSection("model");
    if (!model.ok()) return model.status();
    MICROREC_RETURN_IF_ERROR(model_->LoadState(&*model));
    Result<snapshot::Decoder> rng = file.OpenSection("rng");
    if (!rng.ok()) return rng.status();
    MICROREC_RETURN_IF_ERROR(LoadRngState(&*rng, &rng_));
    MICROREC_RETURN_IF_ERROR(Adopt(
        users_.Loaded(file, "users", /*verify_fingerprint=*/false), &users_));
    return Adopt(
        infer_.Loaded(file, "infer_cache", /*verify_fingerprint=*/false),
        &infer_);
  }

  Status MapState(const snapshot::MappedFile& file,
                  const EngineContext& ctx) override {
    Result<UserStore<UserId, DistCodec>> users =
        users_.Mapped(file, "users", ctx.mapped_user_cache);
    if (!users.ok()) return users.status();
    // Cached inferences are smaller than user models but hotter (every
    // candidate in every query); give them the same bound scaled up.
    Result<UserStore<TweetId, DistCodec>> infer =
        infer_.Mapped(file, "infer_cache", ctx.mapped_user_cache * 4);
    if (!infer.ok()) return infer.status();
    // The generator state is tiny and order-sensitive: restore it eagerly
    // so the first fresh fold-in draws exactly what the saving engine would
    // have drawn next. The O(model) vocab/model sections stay on disk until
    // EnsureModel() — cache-hit serving never pays for them.
    std::string rng_bytes;
    Result<snapshot::Decoder> rng = OpenMappedSection(file, "rng", &rng_bytes);
    if (!rng.ok()) return rng.status();
    MICROREC_RETURN_IF_ERROR(LoadRngState(&*rng, &rng_));
    users_ = std::move(*users);
    infer_ = std::move(*infer);
    model_.reset();
    return Status::OK();
  }

 private:
  /// Instantiates (but does not train) the configured model. LLDA's label
  /// count is corpus-derived: Prepare() passes it from the label scheme; a
  /// warm start passes 0 and LoadState adopts the persisted count.
  Status MakeModel(const EngineContext& ctx, size_t llda_num_labels) {
    const TopicRunConfig& tc = config_.topic;
    const int iters = ScaledIterations(tc.iterations, ctx.iteration_scale);
    // Sharded-training options for the models that support them (LDA, LLDA,
    // BTM, PLSA). HDP and HLDA are sequential by design — see their headers.
    topic::TrainOptions train;
    train.train_threads = ctx.train_threads;
    train.merge_every = ctx.train_merge_every;
    train.sampler_kernel = ctx.sampler_kernel;
    switch (config_.kind) {
      case ModelKind::kLDA: {
        topic::LdaConfig lc;
        lc.num_topics = tc.num_topics;
        lc.alpha = tc.alpha;
        lc.beta = tc.beta;
        lc.train_iterations = iters;
        lc.train = train;
        lc.cancel = ctx.cancel;
        model_ = std::make_unique<topic::Lda>(lc);
        break;
      }
      case ModelKind::kLLDA: {
        topic::LldaConfig lc;
        lc.num_labels = llda_num_labels;
        lc.num_latent_topics = tc.num_topics;
        lc.alpha = tc.alpha;
        lc.beta = tc.beta;
        lc.train_iterations = iters;
        lc.train = train;
        lc.cancel = ctx.cancel;
        model_ = std::make_unique<topic::Llda>(lc);
        break;
      }
      case ModelKind::kBTM: {
        topic::BtmConfig bc;
        bc.num_topics = tc.num_topics;
        bc.alpha = tc.alpha;
        bc.beta = tc.beta;
        bc.train_iterations = iters;
        bc.window = tc.pooling == corpus::Pooling::kNone ? 0 : tc.window;
        bc.train = train;
        bc.cancel = ctx.cancel;
        model_ = std::make_unique<topic::Btm>(bc);
        break;
      }
      case ModelKind::kHDP: {
        topic::HdpConfig hc;
        hc.alpha = tc.alpha > 0 ? tc.alpha : 1.0;
        hc.gamma = tc.gamma;
        hc.beta = tc.beta;
        hc.train_iterations = iters;
        hc.cancel = ctx.cancel;
        model_ = std::make_unique<topic::Hdp>(hc);
        break;
      }
      case ModelKind::kHLDA: {
        topic::HldaConfig hc;
        hc.levels = tc.levels;
        hc.alpha = tc.alpha;
        hc.beta = tc.beta;
        hc.gamma = tc.gamma;
        // nCRP path resampling is an order of magnitude costlier per sweep
        // than flat Gibbs; the paper's time constraint already limited
        // HLDA's budget (Section 4).
        hc.train_iterations = std::max(3, iters / 5);
        hc.cancel = ctx.cancel;
        model_ = std::make_unique<topic::Hlda>(hc);
        break;
      }
      case ModelKind::kPLSA: {
        topic::PlsaConfig pc;
        pc.num_topics = tc.num_topics;
        pc.train_iterations = std::max(5, iters / 10);  // EM steps
        pc.train = train;
        pc.cancel = ctx.cancel;
        model_ = std::make_unique<topic::Plsa>(pc);
        break;
      }
      default:
        return Status::InvalidArgument("not a topic model");
    }
    return Status::OK();
  }

  /// Adopts a persisted vocabulary (checked against the header's
  /// fingerprint) and instantiates the model it indexes, untrained.
  Status RestoreVocabulary(snapshot::Decoder* dec, const std::string& origin,
                           uint64_t fingerprint, const EngineContext& ctx) {
    std::vector<std::string> terms;
    MICROREC_RETURN_IF_ERROR(dec->ReadVecString(&terms));
    MICROREC_RETURN_IF_ERROR(dec->ExpectEnd());
    MICROREC_RETURN_IF_ERROR(CheckVocabFingerprint(
        origin, fingerprint, snapshot::FingerprintTerms(terms)));
    docs_ = topic::DocSet();
    docs_.RestoreVocabulary(terms);
    return MakeModel(ctx, /*llda_num_labels=*/0);
  }

  /// Mapped mode defers the O(model) sections (vocabulary + trained
  /// counts/phi) until something actually needs the model: a fold-in for a
  /// tweet absent from the persisted inference cache, or a cold user build.
  /// Verifies the vocabulary fingerprint exactly like the resident load.
  Status EnsureModel(const EngineContext& ctx) {
    if (model_ != nullptr) return Status::OK();
    const snapshot::MappedFile* file = mapped_file();
    if (file == nullptr) return Status::FailedPrecondition("Prepare() not called");
    std::string vocab_bytes, model_bytes;
    Result<snapshot::Decoder> vocab =
        OpenMappedSection(*file, "vocab", &vocab_bytes);
    if (!vocab.ok()) return vocab.status();
    MICROREC_RETURN_IF_ERROR(RestoreVocabulary(
        &*vocab, file->origin(), file->header().vocab_fingerprint, ctx));
    Result<snapshot::Decoder> model =
        OpenMappedSection(*file, "model", &model_bytes);
    Status loaded = model.ok() ? model_->LoadState(&*model) : model.status();
    if (!loaded.ok()) model_.reset();
    return loaded;
  }

  // Per-tweet topic distributions are shared across users (the same test or
  // train tweet can appear for many users), so inference is cached.
  // Returns the cached topic distribution of a tweet, or an *empty* vector
  // when none of its words appear in the training vocabulary.
  const std::vector<double>& Infer(TweetId id, const EngineContext& ctx) {
    // A corrupt persisted inference or a model that fails to load degrades
    // the tweet to no-evidence (an empty distribution) and is counted. A
    // BuildUser in progress also returns it (fold_in_error_); under Score
    // it is only counted, since BuildUser resets the slot before folding in.
    static const std::vector<double> kNoEvidence;
    // Persisted inference first (mapped mode): a hit is a row decode, not a
    // Gibbs fold-in, and consumes no generator draws (matching the resident
    // engine, whose cache was loaded wholesale).
    Status error;
    if (const std::vector<double>* cached = infer_.Find(id, &error)) {
      return *cached;
    }
    if (error.ok()) {
      error = EnsureModel(ctx);
      if (!error.ok()) MappedRowErrorCounter()->Increment();
    }
    if (!error.ok()) {
      fold_in_error_ = error;
      return kNoEvidence;
    }
    // Absent from the snapshot: fold in fresh, in the same call order (and
    // hence the same rng draw sequence) as the resident engine. Fresh
    // inferences are pinned — the map cannot re-materialize them.
    static obs::Histogram* infer_hist =
        obs::MetricsRegistry::Global().GetHistogram(
            "topic.infer_seconds");
    obs::ScopedHistogramTimer timer(infer_hist);
    std::vector<topic::TermId> words = docs_.Lookup(ctx.pre->Filtered(id));
    std::vector<double> dist;
    if (!words.empty()) dist = model_->InferDocument(words, &rng_);
    return infer_.Put(id, std::move(dist));
  }

  Rng rng_;
  topic::DocSet docs_;
  std::unique_ptr<topic::TopicModel> model_;
  UserStore<UserId, DistCodec> users_;
  UserStore<TweetId, DistCodec> infer_;
  // The first fold-in error of the BuildUser in progress.
  Status fold_in_error_;
};

}  // namespace

const char* ServeModeName(ServeMode mode) {
  switch (mode) {
    case ServeMode::kResident:
      return "resident";
    case ServeMode::kMmap:
      return "mmap";
  }
  return "resident";
}

Status ParseServeMode(std::string_view name, ServeMode* mode) {
  if (name == "resident") {
    *mode = ServeMode::kResident;
    return Status::OK();
  }
  if (name == "mmap") {
    *mode = ServeMode::kMmap;
    return Status::OK();
  }
  return Status::InvalidArgument("unknown serve mode \"" + std::string(name) +
                                 "\" (expected \"resident\" or \"mmap\")");
}

std::unique_ptr<Engine> MakeEngine(const ModelConfig& config) {
  switch (config.kind) {
    case ModelKind::kTN:
    case ModelKind::kCN:
      return std::make_unique<BagEngine>(config);
    case ModelKind::kTNG:
    case ModelKind::kCNG:
      return std::make_unique<GraphEngine>(config);
    default:
      return std::make_unique<TopicEngine>(config);
  }
}

}  // namespace microrec::rec
