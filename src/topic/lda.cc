#include "topic/lda.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "topic/sparse_kernel.h"

namespace microrec::topic {

Status Lda::Train(const DocSet& docs, Rng* rng) {
  MICROREC_SPAN("lda_train");
  if (trained_) return Status::FailedPrecondition("Train called twice");
  if (config_.num_topics == 0) {
    return Status::InvalidArgument("num_topics must be positive");
  }
  if (docs.vocab_size() == 0) {
    return Status::FailedPrecondition("empty training vocabulary");
  }
  MICROREC_RETURN_IF_ERROR(ValidateHyperparameters(
      "LDA", config_.ResolvedAlpha(), config_.beta));
  vocab_size_ = docs.vocab_size();
  const size_t K = config_.num_topics;
  const size_t V = vocab_size_;
  const double alpha = config_.ResolvedAlpha();
  const double beta = config_.beta;
  const double v_beta = static_cast<double>(V) * beta;

  // Flatten the corpus for cache-friendly sweeps.
  std::vector<TermId> words;
  std::vector<uint32_t> doc_of;
  words.reserve(docs.total_tokens());
  doc_of.reserve(docs.total_tokens());
  for (size_t d = 0; d < docs.num_docs(); ++d) {
    for (TermId w : docs.docs()[d].words) {
      words.push_back(w);
      doc_of.push_back(static_cast<uint32_t>(d));
    }
  }
  const size_t N = words.size();
  if (N == 0) return Status::FailedPrecondition("empty training corpus");

  std::vector<uint32_t> z(N);
  std::vector<uint32_t> n_dk(docs.num_docs() * K, 0);
  std::vector<uint32_t> n_kw(K * V, 0);
  std::vector<uint32_t> n_k(K, 0);

  for (size_t i = 0; i < N; ++i) {
    uint32_t topic = rng->UniformU32(static_cast<uint32_t>(K));
    z[i] = topic;
    ++n_dk[doc_of[i] * K + topic];
    ++n_kw[static_cast<size_t>(topic) * V + words[i]];
    ++n_k[topic];
  }

  if (config_.train.train_threads > 1) {
    MICROREC_RETURN_IF_ERROR(
        ParallelSweeps(docs, rng, words, doc_of, &z, &n_dk, &n_kw, &n_k));
  } else if (config_.train.sampler_kernel == SamplerKernel::kSparse) {
    MICROREC_RETURN_IF_ERROR(
        SparseSweeps(docs, rng, words, doc_of, &z, &n_dk, &n_kw, &n_k));
  } else {
    std::vector<double> weights(K);
    obs::Histogram* sweep_hist = obs::MetricsRegistry::Global().GetHistogram(
        "topic.lda.sweep_seconds");
    for (int iter = 0; iter < config_.train_iterations; ++iter) {
      MICROREC_RETURN_IF_ERROR(GuardSweep(
          "LDA", iter, config_.cancel,
          iter == 0 ? nullptr : weights.data(), K));
      obs::ScopedHistogramTimer sweep_timer(sweep_hist);
      const uint64_t degenerate_before = rng->degenerate_draws();
      bool counts_ok = true;
      for (size_t i = 0; i < N; ++i) {
        const uint32_t d = doc_of[i];
        const TermId w = words[i];
        const uint32_t old = z[i];
        counts_ok &= GuardedDecrement(&n_dk[d * K + old]);
        counts_ok &= GuardedDecrement(&n_kw[static_cast<size_t>(old) * V + w]);
        counts_ok &= GuardedDecrement(&n_k[old]);
        for (size_t k = 0; k < K; ++k) {
          weights[k] = (n_dk[d * K + k] + alpha) *
                       (n_kw[k * V + w] + beta) /
                       (n_k[k] + v_beta);
        }
        uint32_t fresh =
            static_cast<uint32_t>(rng->Categorical(weights.data(), K));
        z[i] = fresh;
        ++n_dk[d * K + fresh];
        ++n_kw[static_cast<size_t>(fresh) * V + w];
        ++n_k[fresh];
      }
      if (!counts_ok) return CountUnderflowError("LDA", iter);
      MICROREC_RETURN_IF_ERROR(GuardDegenerateDraws(
          "LDA", iter, rng->degenerate_draws() - degenerate_before));
    }
    MICROREC_RETURN_IF_ERROR(CheckPosteriorMass(
        "LDA", config_.train_iterations, weights.data(), K));
  }

  phi_.assign(K * V, 0.0);
  for (size_t k = 0; k < K; ++k) {
    const double denom = n_k[k] + v_beta;
    for (size_t w = 0; w < V; ++w) {
      phi_[k * V + w] = (n_kw[k * V + w] + beta) / denom;
    }
  }
  trained_ = true;
  return Status::OK();
}

Status Lda::ParallelSweeps(const DocSet& docs, Rng* rng,
                           const std::vector<TermId>& words,
                           const std::vector<uint32_t>& doc_of,
                           std::vector<uint32_t>* z,
                           std::vector<uint32_t>* n_dk,
                           std::vector<uint32_t>* n_kw,
                           std::vector<uint32_t>* n_k) {
  const size_t K = config_.num_topics;
  const size_t V = vocab_size_;
  const double alpha = config_.ResolvedAlpha();
  const double beta = config_.beta;
  const double v_beta = static_cast<double>(V) * beta;
  const size_t D = docs.num_docs();

  // Token offsets per document (tokens were flattened doc-major), so a
  // document shard owns a contiguous token range.
  std::vector<size_t> doc_begin(D + 1, 0);
  for (uint32_t d : doc_of) ++doc_begin[d + 1];
  for (size_t d = 0; d < D; ++d) doc_begin[d + 1] += doc_begin[d];

  ParallelGibbs driver(D, config_.train, rng->NextU64());
  const size_t h_kw = driver.AddCounts(n_kw);
  const size_t h_k = driver.AddCounts(n_k);
  obs::Histogram* sweep_hist =
      obs::MetricsRegistry::Global().GetHistogram("topic.lda.sweep_seconds");
  std::vector<uint8_t> shard_ok(driver.num_shards(), 1);
  std::vector<uint64_t> shard_degenerate(driver.num_shards(), 0);

  if (config_.train.sampler_kernel == SamplerKernel::kSparse) {
    // Each shard owns a sparse kernel, rebound to its refreshed count
    // replicas at every merge-block boundary.
    const int merge_every = std::max(1, config_.train.merge_every);
    std::vector<double> shard_mass(driver.num_shards(), 0.0);
    std::vector<std::unique_ptr<GibbsSparseSweeper>> sweepers;
    for (size_t s = 0; s < driver.num_shards(); ++s) {
      sweepers.push_back(
          std::make_unique<GibbsSparseSweeper>(K, V, alpha, beta));
    }
    return RunParallelKernel(
        "LDA", config_.train_iterations, config_.cancel, driver, sweep_hist,
        &shard_mass, &shard_ok, &shard_degenerate,
        [&](const ParallelGibbs::Shard& shard, int iter) {
          GibbsSparseSweeper& sweeper = *sweepers[shard.index];
          if (iter % merge_every == 0) {
            sweeper.Bind(n_dk->data(), shard.Counts(h_kw), shard.Counts(h_k));
          }
          SweepDocRange(sweeper, shard.begin, shard.end, doc_begin, words,
                        nullptr, z->data(), shard.rng);
          shard_mass[shard.index] = sweeper.last_mass();
          shard_ok[shard.index] &= sweeper.counts_ok() ? 1 : 0;
          shard_degenerate[shard.index] += shard.rng->degenerate_draws();
        });
  }

  std::vector<std::vector<double>> scratch(driver.num_shards(),
                                           std::vector<double>(K));
  for (int iter = 0; iter < config_.train_iterations; ++iter) {
    MICROREC_RETURN_IF_ERROR(GuardSweep(
        "LDA", iter, config_.cancel,
        iter == 0 ? nullptr : scratch[0].data(), K));
    obs::ScopedHistogramTimer sweep_timer(sweep_hist);
    driver.RunIteration(iter, [&](const ParallelGibbs::Shard& shard) {
      double* weights = scratch[shard.index].data();
      uint32_t* local_kw = shard.Counts(h_kw);
      uint32_t* local_k = shard.Counts(h_k);
      uint32_t* zs = z->data();
      uint32_t* dk = n_dk->data();
      bool counts_ok = true;
      for (size_t d = shard.begin; d < shard.end; ++d) {
        for (size_t i = doc_begin[d]; i < doc_begin[d + 1]; ++i) {
          const TermId w = words[i];
          const uint32_t old = zs[i];
          counts_ok &= GuardedDecrement(&dk[d * K + old]);
          counts_ok &=
              GuardedDecrement(&local_kw[static_cast<size_t>(old) * V + w]);
          counts_ok &= GuardedDecrement(&local_k[old]);
          for (size_t k = 0; k < K; ++k) {
            weights[k] = (dk[d * K + k] + alpha) *
                         (local_kw[k * V + w] + beta) /
                         (local_k[k] + v_beta);
          }
          uint32_t fresh =
              static_cast<uint32_t>(shard.rng->Categorical(weights, K));
          zs[i] = fresh;
          ++dk[d * K + fresh];
          ++local_kw[static_cast<size_t>(fresh) * V + w];
          ++local_k[fresh];
        }
      }
      shard_ok[shard.index] &= counts_ok ? 1 : 0;
      shard_degenerate[shard.index] += shard.rng->degenerate_draws();
    });
    for (uint8_t ok : shard_ok) {
      if (!ok) return CountUnderflowError("LDA", iter);
    }
    uint64_t degenerate = 0;
    for (uint64_t& d : shard_degenerate) {
      degenerate += d;
      d = 0;
    }
    MICROREC_RETURN_IF_ERROR(GuardDegenerateDraws("LDA", iter, degenerate));
  }
  driver.FlushMerge();
  return CheckPosteriorMass("LDA", config_.train_iterations,
                            scratch[0].data(), K);
}

Status Lda::SparseSweeps(const DocSet& docs, Rng* rng,
                         const std::vector<TermId>& words,
                         const std::vector<uint32_t>& doc_of,
                         std::vector<uint32_t>* z, std::vector<uint32_t>* n_dk,
                         std::vector<uint32_t>* n_kw,
                         std::vector<uint32_t>* n_k) {
  const size_t K = config_.num_topics;
  const size_t V = vocab_size_;
  const size_t D = docs.num_docs();

  std::vector<size_t> doc_begin(D + 1, 0);
  for (uint32_t d : doc_of) ++doc_begin[d + 1];
  for (size_t d = 0; d < D; ++d) doc_begin[d + 1] += doc_begin[d];

  obs::Histogram* sweep_hist =
      obs::MetricsRegistry::Global().GetHistogram("topic.lda.sweep_seconds");
  GibbsSparseSweeper sweeper(K, V, config_.ResolvedAlpha(), config_.beta);
  sweeper.Bind(n_dk->data(), n_kw->data(), n_k->data());
  return RunSequentialKernel(
      "LDA", sweeper, config_.train_iterations, config_.cancel, sweep_hist,
      rng, [&] {
        SweepDocRange(sweeper, 0, D, doc_begin, words, nullptr, z->data(),
                      rng);
      });
}

std::vector<double> Lda::InferDocument(const std::vector<TermId>& words,
                                       Rng* rng) const {
  const size_t K = config_.num_topics;
  std::vector<double> theta(K, 1.0 / static_cast<double>(K));
  if (!trained_ || words.empty()) return theta;

  const double alpha = config_.ResolvedAlpha();
  std::vector<uint32_t> z(words.size());
  std::vector<uint32_t> n_dk(K, 0);
  std::vector<double> weights(K);

  for (size_t i = 0; i < words.size(); ++i) {
    uint32_t topic = rng->UniformU32(static_cast<uint32_t>(K));
    z[i] = topic;
    ++n_dk[topic];
  }
  for (int iter = 0; iter < config_.infer_iterations; ++iter) {
    for (size_t i = 0; i < words.size(); ++i) {
      const TermId w = words[i];
      --n_dk[z[i]];
      for (size_t k = 0; k < K; ++k) {
        weights[k] = (n_dk[k] + alpha) * phi_[k * vocab_size_ + w];
      }
      z[i] = static_cast<uint32_t>(rng->Categorical(weights.data(), K));
      ++n_dk[z[i]];
    }
  }
  const double denom = static_cast<double>(words.size()) +
                       static_cast<double>(K) * alpha;
  for (size_t k = 0; k < K; ++k) {
    theta[k] = (n_dk[k] + alpha) / denom;
  }
  return theta;
}

std::vector<double> Lda::TopicWordDistribution(size_t topic) const {
  std::vector<double> out(vocab_size_, 0.0);
  if (!trained_) return out;
  for (size_t w = 0; w < vocab_size_; ++w) {
    out[w] = phi_[topic * vocab_size_ + w];
  }
  return out;
}

void Lda::SaveState(snapshot::Encoder* enc) const {
  SaveFlatPhi(enc, vocab_size_, config_.num_topics, phi_);
}

Status Lda::LoadState(snapshot::Decoder* dec) {
  size_t vocab = 0;
  size_t topics = 0;
  std::vector<double> phi;
  MICROREC_RETURN_IF_ERROR(LoadFlatPhi(dec, "LDA", &vocab, &topics, &phi));
  if (topics != config_.num_topics) {
    return Status::FailedPrecondition(
        "LDA snapshot trained with " + std::to_string(topics) +
        " topics, configuration expects " +
        std::to_string(config_.num_topics));
  }
  MICROREC_RETURN_IF_ERROR(dec->ExpectEnd());
  vocab_size_ = vocab;
  phi_ = std::move(phi);
  trained_ = true;
  return Status::OK();
}

}  // namespace microrec::topic
