#include "topic/llda.h"

#include <algorithm>
#include <memory>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "topic/sparse_kernel.h"

namespace microrec::topic {

Status Llda::Train(const DocSet& docs, Rng* rng) {
  MICROREC_SPAN("llda_train");
  if (trained_) return Status::FailedPrecondition("Train called twice");
  if (config_.num_latent_topics == 0) {
    return Status::InvalidArgument("need at least one latent topic");
  }
  if (docs.vocab_size() == 0) {
    return Status::FailedPrecondition("empty training vocabulary");
  }
  MICROREC_RETURN_IF_ERROR(ValidateHyperparameters(
      "LLDA", config_.ResolvedAlpha(), config_.beta));
  vocab_size_ = docs.vocab_size();
  const size_t K = config_.TotalTopics();
  const size_t V = vocab_size_;
  const size_t num_labels = config_.num_labels;
  const double alpha = config_.ResolvedAlpha();
  const double beta = config_.beta;
  const double v_beta = static_cast<double>(V) * beta;

  // Allowed topics per document: its labels plus every latent topic.
  const size_t D = docs.num_docs();
  std::vector<std::vector<uint32_t>> allowed(D);
  for (size_t d = 0; d < D; ++d) {
    const TopicDoc& doc = docs.docs()[d];
    allowed[d].reserve(doc.labels.size() + config_.num_latent_topics);
    for (uint32_t label : doc.labels) {
      if (label < num_labels) allowed[d].push_back(label);
    }
    for (size_t k = 0; k < config_.num_latent_topics; ++k) {
      allowed[d].push_back(static_cast<uint32_t>(num_labels + k));
    }
  }

  std::vector<TermId> words;
  std::vector<uint32_t> doc_of;
  words.reserve(docs.total_tokens());
  doc_of.reserve(docs.total_tokens());
  for (size_t d = 0; d < D; ++d) {
    for (TermId w : docs.docs()[d].words) {
      words.push_back(w);
      doc_of.push_back(static_cast<uint32_t>(d));
    }
  }
  const size_t N = words.size();
  if (N == 0) return Status::FailedPrecondition("empty training corpus");

  std::vector<uint32_t> z(N);
  std::vector<uint32_t> n_dk(D * K, 0);
  std::vector<uint32_t> n_kw(K * V, 0);
  std::vector<uint32_t> n_k(K, 0);

  for (size_t i = 0; i < N; ++i) {
    const auto& menu = allowed[doc_of[i]];
    uint32_t topic = menu[rng->UniformU32(static_cast<uint32_t>(menu.size()))];
    z[i] = topic;
    ++n_dk[doc_of[i] * K + topic];
    ++n_kw[static_cast<size_t>(topic) * V + words[i]];
    ++n_k[topic];
  }

  if (config_.train.train_threads > 1) {
    MICROREC_RETURN_IF_ERROR(ParallelSweeps(docs, rng, words, doc_of,
                                            allowed, &z, &n_dk, &n_kw,
                                            &n_k));
  } else if (config_.train.sampler_kernel == SamplerKernel::kSparse) {
    MICROREC_RETURN_IF_ERROR(SparseSweeps(docs, rng, words, doc_of, allowed,
                                          &z, &n_dk, &n_kw, &n_k));
  } else {
    std::vector<double> weights;
    obs::Histogram* sweep_hist = obs::MetricsRegistry::Global().GetHistogram(
        "topic.llda.sweep_seconds");
    for (int iter = 0; iter < config_.train_iterations; ++iter) {
      MICROREC_RETURN_IF_ERROR(GuardSweep(
          "LLDA", iter, config_.cancel,
          weights.empty() ? nullptr : weights.data(), weights.size()));
      obs::ScopedHistogramTimer sweep_timer(sweep_hist);
      const uint64_t degenerate_before = rng->degenerate_draws();
      bool counts_ok = true;
      for (size_t i = 0; i < N; ++i) {
        const uint32_t d = doc_of[i];
        const TermId w = words[i];
        const auto& menu = allowed[d];
        const uint32_t old = z[i];
        counts_ok &= GuardedDecrement(&n_dk[d * K + old]);
        counts_ok &= GuardedDecrement(&n_kw[static_cast<size_t>(old) * V + w]);
        counts_ok &= GuardedDecrement(&n_k[old]);
        weights.resize(menu.size());
        for (size_t m = 0; m < menu.size(); ++m) {
          const uint32_t k = menu[m];
          weights[m] = (n_dk[d * K + k] + alpha) *
                       (n_kw[static_cast<size_t>(k) * V + w] + beta) /
                       (n_k[k] + v_beta);
        }
        uint32_t fresh = menu[rng->Categorical(weights.data(), menu.size())];
        z[i] = fresh;
        ++n_dk[d * K + fresh];
        ++n_kw[static_cast<size_t>(fresh) * V + w];
        ++n_k[fresh];
      }
      if (!counts_ok) return CountUnderflowError("LLDA", iter);
      MICROREC_RETURN_IF_ERROR(GuardDegenerateDraws(
          "LLDA", iter, rng->degenerate_draws() - degenerate_before));
    }
    MICROREC_RETURN_IF_ERROR(CheckPosteriorMass(
        "LLDA", config_.train_iterations,
        weights.empty() ? nullptr : weights.data(), weights.size()));
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

Status Llda::ParallelSweeps(
    const DocSet& docs, Rng* rng, const std::vector<TermId>& words,
    const std::vector<uint32_t>& doc_of,
    const std::vector<std::vector<uint32_t>>& allowed,
    std::vector<uint32_t>* z, std::vector<uint32_t>* n_dk,
    std::vector<uint32_t>* n_kw, std::vector<uint32_t>* n_k) {
  const size_t K = config_.TotalTopics();
  const size_t V = vocab_size_;
  const double alpha = config_.ResolvedAlpha();
  const double beta = config_.beta;
  const double v_beta = static_cast<double>(V) * beta;
  const size_t D = docs.num_docs();

  std::vector<size_t> doc_begin(D + 1, 0);
  for (uint32_t d : doc_of) ++doc_begin[d + 1];
  for (size_t d = 0; d < D; ++d) doc_begin[d + 1] += doc_begin[d];

  ParallelGibbs driver(D, config_.train, rng->NextU64());
  const size_t h_kw = driver.AddCounts(n_kw);
  const size_t h_k = driver.AddCounts(n_k);
  obs::Histogram* sweep_hist =
      obs::MetricsRegistry::Global().GetHistogram("topic.llda.sweep_seconds");
  std::vector<uint8_t> shard_ok(driver.num_shards(), 1);
  std::vector<uint64_t> shard_degenerate(driver.num_shards(), 0);

  if (config_.train.sampler_kernel == SamplerKernel::kSparse) {
    const int merge_every = std::max(1, config_.train.merge_every);
    std::vector<double> shard_mass(driver.num_shards(), 0.0);
    std::vector<std::unique_ptr<GibbsSparseSweeper>> sweepers;
    for (size_t s = 0; s < driver.num_shards(); ++s) {
      sweepers.push_back(
          std::make_unique<GibbsSparseSweeper>(K, V, alpha, beta));
    }
    return RunParallelKernel(
        "LLDA", config_.train_iterations, config_.cancel, driver, sweep_hist,
        &shard_mass, &shard_ok, &shard_degenerate,
        [&](const ParallelGibbs::Shard& shard, int iter) {
          GibbsSparseSweeper& sweeper = *sweepers[shard.index];
          if (iter % merge_every == 0) {
            sweeper.Bind(n_dk->data(), shard.Counts(h_kw), shard.Counts(h_k));
          }
          SweepDocRange(sweeper, shard.begin, shard.end, doc_begin, words,
                        &allowed, z->data(), shard.rng);
          shard_mass[shard.index] = sweeper.last_mass();
          shard_ok[shard.index] &= sweeper.counts_ok() ? 1 : 0;
          shard_degenerate[shard.index] += shard.rng->degenerate_draws();
        });
  }

  // Menus vary per document, so each shard resizes its own weights buffer.
  std::vector<std::vector<double>> scratch(driver.num_shards());
  for (int iter = 0; iter < config_.train_iterations; ++iter) {
    MICROREC_RETURN_IF_ERROR(GuardSweep(
        "LLDA", iter, config_.cancel,
        scratch[0].empty() ? nullptr : scratch[0].data(),
        scratch[0].size()));
    obs::ScopedHistogramTimer sweep_timer(sweep_hist);
    driver.RunIteration(iter, [&](const ParallelGibbs::Shard& shard) {
      std::vector<double>& weights = scratch[shard.index];
      uint32_t* local_kw = shard.Counts(h_kw);
      uint32_t* local_k = shard.Counts(h_k);
      uint32_t* zs = z->data();
      uint32_t* dk = n_dk->data();
      bool counts_ok = true;
      for (size_t d = shard.begin; d < shard.end; ++d) {
        const auto& menu = allowed[d];
        for (size_t i = doc_begin[d]; i < doc_begin[d + 1]; ++i) {
          const TermId w = words[i];
          const uint32_t old = zs[i];
          counts_ok &= GuardedDecrement(&dk[d * K + old]);
          counts_ok &=
              GuardedDecrement(&local_kw[static_cast<size_t>(old) * V + w]);
          counts_ok &= GuardedDecrement(&local_k[old]);
          weights.resize(menu.size());
          for (size_t m = 0; m < menu.size(); ++m) {
            const uint32_t k = menu[m];
            weights[m] = (dk[d * K + k] + alpha) *
                         (local_kw[static_cast<size_t>(k) * V + w] + beta) /
                         (local_k[k] + v_beta);
          }
          uint32_t fresh =
              menu[shard.rng->Categorical(weights.data(), menu.size())];
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
      if (!ok) return CountUnderflowError("LLDA", iter);
    }
    uint64_t degenerate = 0;
    for (uint64_t& d : shard_degenerate) {
      degenerate += d;
      d = 0;
    }
    MICROREC_RETURN_IF_ERROR(GuardDegenerateDraws("LLDA", iter, degenerate));
  }
  driver.FlushMerge();
  return CheckPosteriorMass(
      "LLDA", config_.train_iterations,
      scratch[0].empty() ? nullptr : scratch[0].data(), scratch[0].size());
}

Status Llda::SparseSweeps(
    const DocSet& docs, Rng* rng, const std::vector<TermId>& words,
    const std::vector<uint32_t>& doc_of,
    const std::vector<std::vector<uint32_t>>& allowed,
    std::vector<uint32_t>* z, std::vector<uint32_t>* n_dk,
    std::vector<uint32_t>* n_kw, std::vector<uint32_t>* n_k) {
  const size_t K = config_.TotalTopics();
  const size_t V = vocab_size_;
  const size_t D = docs.num_docs();

  std::vector<size_t> doc_begin(D + 1, 0);
  for (uint32_t d : doc_of) ++doc_begin[d + 1];
  for (size_t d = 0; d < D; ++d) doc_begin[d + 1] += doc_begin[d];

  obs::Histogram* sweep_hist =
      obs::MetricsRegistry::Global().GetHistogram("topic.llda.sweep_seconds");
  GibbsSparseSweeper sweeper(K, V, config_.ResolvedAlpha(), config_.beta);
  sweeper.Bind(n_dk->data(), n_kw->data(), n_k->data());
  return RunSequentialKernel(
      "LLDA", sweeper, config_.train_iterations, config_.cancel, sweep_hist,
      rng, [&] {
        SweepDocRange(sweeper, 0, D, doc_begin, words, &allowed, z->data(),
                      rng);
      });
}

std::vector<double> Llda::InferDocument(const std::vector<TermId>& words,
                                        Rng* rng) const {
  const size_t K = config_.TotalTopics();
  std::vector<double> theta(K, 1.0 / static_cast<double>(K));
  if (!trained_ || words.empty()) return theta;

  const double alpha = config_.ResolvedAlpha();
  std::vector<uint32_t> z(words.size());
  std::vector<uint32_t> n_dk(K, 0);
  std::vector<double> weights(K);

  for (size_t i = 0; i < words.size(); ++i) {
    z[i] = rng->UniformU32(static_cast<uint32_t>(K));
    ++n_dk[z[i]];
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
  for (size_t k = 0; k < K; ++k) theta[k] = (n_dk[k] + alpha) / denom;
  return theta;
}

void Llda::SaveState(snapshot::Encoder* enc) const {
  enc->PutU64(config_.num_labels);
  enc->PutU64(config_.num_latent_topics);
  SaveFlatPhi(enc, vocab_size_, config_.TotalTopics(), phi_);
}

Status Llda::LoadState(snapshot::Decoder* dec) {
  uint64_t num_labels = 0;
  uint64_t num_latent = 0;
  MICROREC_RETURN_IF_ERROR(dec->ReadU64(&num_labels));
  MICROREC_RETURN_IF_ERROR(dec->ReadU64(&num_latent));
  if (num_latent != config_.num_latent_topics) {
    return Status::FailedPrecondition(
        "LLDA snapshot trained with " + std::to_string(num_latent) +
        " latent topics, configuration expects " +
        std::to_string(config_.num_latent_topics));
  }
  size_t vocab = 0;
  size_t topics = 0;
  std::vector<double> phi;
  MICROREC_RETURN_IF_ERROR(LoadFlatPhi(dec, "LLDA", &vocab, &topics, &phi));
  if (topics != num_labels + num_latent) {
    return Status::InvalidArgument(
        "LLDA snapshot topic count " + std::to_string(topics) +
        " does not equal labels + latent (" + std::to_string(num_labels) +
        " + " + std::to_string(num_latent) + ")");
  }
  MICROREC_RETURN_IF_ERROR(dec->ExpectEnd());
  config_.num_labels = num_labels;
  vocab_size_ = vocab;
  phi_ = std::move(phi);
  trained_ = true;
  return Status::OK();
}

}  // namespace microrec::topic
