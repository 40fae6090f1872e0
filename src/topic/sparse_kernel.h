// Sparse per-token draw kernel for the collapsed Gibbs samplers (ROADMAP
// item: make the *draw* fast, not just the outer loop), selected by
// TrainOptions::sampler_kernel = kSparse (DESIGN.md §15).
//
// SparseLDA (Yao, Mimno & McCallum 2009): the per-token mass
//   p(k) ∝ (n_dk + α)(n_kw + β) / (n_k + Vβ)
// splits into three buckets with c_k = 1/(n_k + Vβ):
//   s = αβ Σ c_k            (smoothing-only; shared by every token)
//   r = β  Σ n_dk c_k       (document; nonzero only on the doc's topics)
//   q = Σ n_kw (n_dk+α) c_k (topic-word; nonzero only on the word's topics)
// s and r are maintained incrementally; q is a scan of the word's
// sorted-by-count topic list with the per-doc coefficient (n_dk+α)c_k
// cached dense. Buckets are scanned largest-first (q, r, s), so a draw
// costs O(|word topics| + |doc topics|) instead of O(K). Exact: the bucket
// sum equals the dense mass, draw for draw. BtmSparseSweeper applies the
// same decomposition to BTM's biterm mass.
//
// The kernel composes with topic::ParallelGibbs: each shard owns a kernel
// instance bound to its count replicas (re-Bind at merge-block boundaries),
// so determinism for fixed (seed, train_threads, merge_every,
// sampler_kernel) is preserved. It is not bit-identical to kDense — it
// consumes a different draw sequence — and is covered by the same
// statistical-equivalence contract as parallel training
// (tests/topic/stat_equiv_test.cc).
#ifndef MICROREC_TOPIC_SPARSE_KERNEL_H_
#define MICROREC_TOPIC_SPARSE_KERNEL_H_

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "topic/doc_set.h"
#include "topic/parallel_gibbs.h"
#include "topic/topic_model.h"
#include "util/rng.h"

namespace microrec::topic {

/// "dense" or "sparse" — the CLI / env spelling.
const char* SamplerKernelName(SamplerKernel kernel);
/// Parses the spelling above; false (out untouched) on anything else.
bool ParseSamplerKernel(std::string_view text, SamplerKernel* out);

/// A topic-count row (one document's topics, or one word's topics) kept
/// sorted by count descending, so cumulative bucket scans meet the draw
/// target after the fewest entries. Increment/Decrement preserve the order
/// by bubbling the touched entry; zero-count entries are erased.
class TopicCountList {
 public:
  struct Entry {
    uint32_t topic;
    uint32_t count;
  };

  /// Rebuilds the list from `num_topics` counts at `counts[k * stride]`
  /// (stride 1: an n_dk row; stride V: an n_kw column). Sorted by (count
  /// desc, topic asc) — a pure function of the counts, independent of any
  /// prior increment history.
  void Assign(const uint32_t* counts, size_t num_topics, size_t stride);

  void Clear() { entries_.clear(); }

  /// Adds one to `topic`, inserting it at count 1 if absent.
  void Increment(uint32_t topic);

  /// Removes one from `topic`; false if the topic is not in the list (the
  /// list disagrees with the backing counts — corrupt state).
  bool Decrement(uint32_t topic);

  size_t size() const { return entries_.size(); }
  const Entry& entry(size_t i) const { return entries_[i]; }
  const Entry* begin() const { return entries_.data(); }
  const Entry* end() const { return entries_.data() + entries_.size(); }

 private:
  std::vector<Entry> entries_;
};

/// SparseLDA kernel for LDA and LLDA. LDA passes a null menu to BeginDoc
/// (all K topics allowed); LLDA passes the document's label+latent menu and
/// the buckets restrict to it. Exact: equivalent in distribution to the
/// dense scan over the same counts.
///
/// Protocol per token i of the bound counts' document d:
///   BeginDoc(d, menu)   — once per document
///   RemoveToken(w, z_i) → z_i' = DrawTopic(w, rng) → AddToken(w, z_i')
/// Bind() must follow any external mutation of the count arrays, e.g. a
/// ParallelGibbs merge barrier.
class GibbsSparseSweeper {
 public:
  GibbsSparseSweeper(size_t num_topics, size_t vocab, double alpha,
                     double beta);

  /// Binds the (mutable, caller-owned) count arrays and rebuilds all
  /// derived state — per-word topic lists, the c_k cache — from them.
  void Bind(uint32_t* n_dk, uint32_t* n_kw, uint32_t* n_k);

  void BeginDoc(size_t doc, const std::vector<uint32_t>* menu);
  void RemoveToken(TermId w, uint32_t topic);
  /// Draws the token's new topic.
  uint32_t DrawTopic(TermId w, Rng* rng);
  void AddToken(TermId w, uint32_t topic);

  /// False once any count decrement would have underflowed or a topic list
  /// disagreed with its backing counts; surfaces as kDataLoss.
  bool counts_ok() const { return counts_ok_; }
  /// Total mass of the most recent draw, for the per-sweep finiteness
  /// guard.
  double last_mass() const { return last_mass_; }

  /// Test hook: the three bucket masses for word `w` in the current
  /// document. s + r + q must equal the dense mass over the same counts.
  void BucketMasses(TermId w, double* s, double* r, double* q) const;

 private:
  uint32_t FallbackTopic() const;

  const size_t num_topics_;
  const size_t vocab_;
  const double alpha_;
  const double beta_;
  const double v_beta_;

  uint32_t* n_dk_ = nullptr;
  uint32_t* n_kw_ = nullptr;
  uint32_t* n_k_ = nullptr;

  std::vector<TopicCountList> word_lists_;  // one per word, over n_kw
  std::vector<double> c_;                   // c_k = 1 / (n_k + Vβ), live
  std::vector<double> q_coeff_;  // (n_dk + α) c_k on the menu, else 0
  TopicCountList doc_list_;      // current document's topics, over n_dk
  std::vector<double> q_scratch_;

  size_t cur_doc_ = 0;
  const std::vector<uint32_t>* cur_menu_ = nullptr;  // null → all topics
  std::vector<uint8_t> in_menu_;
  double s_ck_sum_ = 0.0;  // Σ_{k ∈ menu} c_k        (s = αβ · this)
  double r_nc_sum_ = 0.0;  // Σ_{k ∈ doc} n_dk c_k    (r = β  · this)

  bool counts_ok_ = true;
  double last_mass_ = 0.0;
};

/// SparseLDA-style kernel for BTM. The biterm mass
///   p(k) ∝ (n_z+α)(n_kw1+β)(n_kw2+β) / ((2n_z+Vβ)(2n_z+Vβ+1))
/// factors over coef_k = (n_z+α) / ((2n_z+Vβ)(2n_z+Vβ+1)) into
///   q1 = Σ n_kw1 (n_kw2+β) coef_k   (first word's topic list)
///   q2 = β Σ n_kw2 coef_k           (second word's topic list)
///   s  = β² Σ coef_k                (smoothing; incremental)
/// — the biterm's two words play the role LDA's document bucket plays.
/// The decomposition is exact, including the w1 == w2 case.
class BtmSparseSweeper {
 public:
  BtmSparseSweeper(size_t num_topics, size_t vocab, double alpha,
                   double beta);

  void Bind(uint32_t* n_z, uint32_t* n_kw);
  void RemoveBiterm(TermId w1, TermId w2, uint32_t topic);
  uint32_t DrawTopic(TermId w1, TermId w2, Rng* rng);
  void AddBiterm(TermId w1, TermId w2, uint32_t topic);

  bool counts_ok() const { return counts_ok_; }
  double last_mass() const { return last_mass_; }

  /// Test hook: the bucket masses for a biterm; s + q1 + q2 must equal the
  /// dense mass.
  void BucketMasses(TermId w1, TermId w2, double* s, double* q1,
                    double* q2) const;

 private:
  void RefreshCoef(uint32_t k);

  const size_t num_topics_;
  const size_t vocab_;
  const double alpha_;
  const double beta_;
  const double v_beta_;

  uint32_t* n_z_ = nullptr;
  uint32_t* n_kw_ = nullptr;

  std::vector<TopicCountList> word_lists_;
  std::vector<double> coef_;  // live (n_z+α)/((2n_z+Vβ)(2n_z+Vβ+1))
  double coef_sum_ = 0.0;     // Σ coef_k (s = β² · this)
  std::vector<double> q_scratch1_;
  std::vector<double> q_scratch2_;

  bool counts_ok_ = true;
  double last_mass_ = 0.0;
};

/// Sweeps documents [doc_begin_idx, doc_end_idx) of the flattened corpus
/// through `sweeper` (a GibbsSparseSweeper):
/// remove → draw → add per token. `menus` is null for LDA; for LLDA it
/// holds each document's allowed-topic menu.
template <typename Sweeper>
void SweepDocRange(Sweeper& sweeper, size_t doc_begin_idx, size_t doc_end_idx,
                   const std::vector<size_t>& doc_begin,
                   const std::vector<TermId>& words,
                   const std::vector<std::vector<uint32_t>>* menus,
                   uint32_t* z, Rng* rng) {
  for (size_t d = doc_begin_idx; d < doc_end_idx; ++d) {
    sweeper.BeginDoc(d, menus == nullptr ? nullptr : &(*menus)[d]);
    for (size_t i = doc_begin[d]; i < doc_begin[d + 1]; ++i) {
      const TermId w = words[i];
      sweeper.RemoveToken(w, z[i]);
      z[i] = sweeper.DrawTopic(w, rng);
      sweeper.AddToken(w, z[i]);
    }
  }
}

/// BTM equivalent of SweepDocRange over a flat biterm range.
template <typename Sweeper>
void SweepBitermRange(Sweeper& sweeper, size_t begin, size_t end,
                      const std::vector<std::pair<TermId, TermId>>& biterms,
                      uint32_t* z, Rng* rng) {
  for (size_t i = begin; i < end; ++i) {
    const auto [w1, w2] = biterms[i];
    sweeper.RemoveBiterm(w1, w2, z[i]);
    z[i] = sweeper.DrawTopic(w1, w2, rng);
    sweeper.AddBiterm(w1, w2, z[i]);
  }
}

/// The guard skeleton of a sequential kernel training loop, shared by the
/// three models: per-sweep GuardSweep on the previous sweep's mass,
/// underflow → kDataLoss, degenerate draws → kInternal, and — fixing the
/// gap the dense loops had — a final CheckPosteriorMass on the *last*
/// sweep's output before the caller freezes φ.
template <typename Sweeper, typename SweepFn>
Status RunSequentialKernel(const char* model, Sweeper& sweeper,
                           int iterations,
                           const resilience::CancelContext* cancel,
                           obs::Histogram* sweep_hist, Rng* rng,
                           const SweepFn& sweep) {
  double last_mass = 0.0;
  for (int iter = 0; iter < iterations; ++iter) {
    MICROREC_RETURN_IF_ERROR(GuardSweep(model, iter, cancel,
                                        iter == 0 ? nullptr : &last_mass, 1));
    obs::ScopedHistogramTimer sweep_timer(sweep_hist);
    const uint64_t degenerate_before = rng->degenerate_draws();
    sweep();
    last_mass = sweeper.last_mass();
    if (!sweeper.counts_ok()) return CountUnderflowError(model, iter);
    MICROREC_RETURN_IF_ERROR(GuardDegenerateDraws(
        model, iter, rng->degenerate_draws() - degenerate_before));
  }
  return CheckPosteriorMass(model, iterations, &last_mass, 1);
}

/// The guard skeleton of a parallel (ParallelGibbs) training loop. `body`
/// runs one shard of one iteration and must record that shard's final draw
/// mass, counts_ok flag, and degenerate-draw total into the per-shard
/// slots; this wrapper turns them into the same statuses as the sequential
/// runner, merges outstanding deltas, and checks the final masses.
template <typename BodyFn>
Status RunParallelKernel(const char* model, int iterations,
                         const resilience::CancelContext* cancel,
                         ParallelGibbs& driver, obs::Histogram* sweep_hist,
                         std::vector<double>* shard_mass,
                         std::vector<uint8_t>* shard_ok,
                         std::vector<uint64_t>* shard_degenerate,
                         const BodyFn& body) {
  for (int iter = 0; iter < iterations; ++iter) {
    MICROREC_RETURN_IF_ERROR(
        GuardSweep(model, iter, cancel,
                   iter == 0 ? nullptr : shard_mass->data(),
                   shard_mass->size()));
    obs::ScopedHistogramTimer sweep_timer(sweep_hist);
    driver.RunIteration(iter, [&](const ParallelGibbs::Shard& shard) {
      body(shard, iter);
    });
    for (uint8_t ok : *shard_ok) {
      if (!ok) return CountUnderflowError(model, iter);
    }
    uint64_t degenerate = 0;
    for (uint64_t& d : *shard_degenerate) {
      degenerate += d;
      d = 0;
    }
    MICROREC_RETURN_IF_ERROR(GuardDegenerateDraws(model, iter, degenerate));
  }
  driver.FlushMerge();
  return CheckPosteriorMass(model, iterations, shard_mass->data(),
                            shard_mass->size());
}

}  // namespace microrec::topic

#endif  // MICROREC_TOPIC_SPARSE_KERNEL_H_
