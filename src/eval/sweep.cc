#include "eval/sweep.h"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "resilience/fault.h"
#include "snapshot/format.h"

namespace microrec::eval {

size_t SweepResult::failed() const {
  size_t count = 0;
  for (const ConfigOutcome& outcome : outcomes) {
    if (!outcome.ok()) ++count;
  }
  return count;
}

SweepResult::MapStats SweepResult::StatsOfGroup(
    const std::vector<corpus::UserId>& group) const {
  MapStats stats;
  stats.min = 1e300;
  stats.max = -1e300;
  for (const ConfigOutcome& outcome : outcomes) {
    if (!outcome.ok()) continue;
    double map = outcome.result.MapOfGroup(group);
    stats.mean += map;
    stats.min = std::min(stats.min, map);
    stats.max = std::max(stats.max, map);
    ++stats.configs;
  }
  if (stats.configs == 0) return MapStats();
  stats.mean /= static_cast<double>(stats.configs);
  stats.deviation = stats.max - stats.min;
  return stats;
}

namespace {

SweepResult::TimeStats TimeStatsOf(const std::vector<ConfigOutcome>& outcomes,
                                   bool train) {
  SweepResult::TimeStats stats;
  stats.min = 1e300;
  stats.max = -1e300;
  size_t counted = 0;
  for (const ConfigOutcome& outcome : outcomes) {
    if (!outcome.ok()) continue;
    double t = train ? outcome.result.ttime_seconds
                     : outcome.result.etime_seconds;
    stats.mean += t;
    stats.min = std::min(stats.min, t);
    stats.max = std::max(stats.max, t);
    ++counted;
  }
  if (counted == 0) return SweepResult::TimeStats();
  stats.mean /= static_cast<double>(counted);
  return stats;
}

constexpr char kCheckpointSchema[] = "microrec.sweep_ckpt/2";

std::string EncodeHeader(const std::string& key) {
  snapshot::Encoder enc;
  enc.PutString(kCheckpointSchema);
  enc.PutString(key);
  return enc.Release();
}

std::string EncodeOutcome(const ConfigOutcome& outcome) {
  snapshot::Encoder enc;
  enc.PutString(outcome.config.Fingerprint());
  enc.PutString(StatusCodeName(outcome.status.code()));
  enc.PutString(outcome.status.message());
  enc.PutVecU32(outcome.result.users);
  enc.PutVecF64(outcome.result.aps);
  enc.PutF64(outcome.result.ttime_seconds);
  enc.PutF64(outcome.result.etime_seconds);
  return enc.Release();
}

/// Decodes an outcome record into `*fingerprint` and `*outcome` (whose
/// config stays default: the log keys outcomes by fingerprint only).
Status DecodeOutcome(snapshot::Decoder* dec, std::string* fingerprint,
                     ConfigOutcome* outcome) {
  std::string code_name, message;
  MICROREC_RETURN_IF_ERROR(dec->ReadString(fingerprint));
  MICROREC_RETURN_IF_ERROR(dec->ReadString(&code_name));
  MICROREC_RETURN_IF_ERROR(dec->ReadString(&message));
  MICROREC_RETURN_IF_ERROR(dec->ReadVecU32(&outcome->result.users));
  MICROREC_RETURN_IF_ERROR(dec->ReadVecF64(&outcome->result.aps));
  MICROREC_RETURN_IF_ERROR(dec->ReadF64(&outcome->result.ttime_seconds));
  MICROREC_RETURN_IF_ERROR(dec->ReadF64(&outcome->result.etime_seconds));
  MICROREC_RETURN_IF_ERROR(dec->ExpectEnd());
  if (outcome->result.users.size() != outcome->result.aps.size()) {
    return Status::InvalidArgument("users/aps length mismatch for " +
                                   *fingerprint);
  }
  Result<StatusCode> code = ParseStatusCode(code_name);
  if (!code.ok()) return code.status();
  outcome->status = Status::FromCode(*code, std::move(message));
  return Status::OK();
}

}  // namespace

SweepResult::TimeStats SweepResult::TrainTime() const {
  return TimeStatsOf(outcomes, /*train=*/true);
}

SweepResult::TimeStats SweepResult::TestTime() const {
  return TimeStatsOf(outcomes, /*train=*/false);
}

const ConfigOutcome* SweepResult::Best(
    const std::vector<corpus::UserId>& group) const {
  const ConfigOutcome* best = nullptr;
  double best_map = -1.0;
  for (const ConfigOutcome& outcome : outcomes) {
    if (!outcome.ok()) continue;
    double map = outcome.result.MapOfGroup(group);
    if (map > best_map) {
      best_map = map;
      best = &outcome;
    }
  }
  return best;
}

Result<SweepCheckpoint> SweepCheckpoint::Open(std::string dir,
                                              std::string key) {
  SweepCheckpoint checkpoint;
  checkpoint.dir_ = std::move(dir);
  checkpoint.key_ = std::move(key);
  std::error_code ec;
  const std::filesystem::file_status status =
      std::filesystem::status(checkpoint.dir_, ec);
  if (status.type() == std::filesystem::file_type::not_found) {
    return checkpoint;
  }
  if (ec) {
    return Status::Internal("checkpoint: cannot stat " + checkpoint.dir_ +
                            ": " + ec.message());
  }
  if (!std::filesystem::is_directory(status)) {
    return Status::FailedPrecondition(
        "checkpoint path " + checkpoint.dir_ +
        " is not a directory (a checkpoint is a microrec.wal/1 log "
        "directory; older builds wrote microrec.sweep_ckpt/1 files); it is "
        "left untouched, pass a new path");
  }
  auto restore = [&checkpoint](std::string_view payload,
                               const snapshot::WalRecordRef& ref) -> Status {
    auto where = [&ref] {
      return *ref.file + ":offset " + std::to_string(ref.offset);
    };
    snapshot::Decoder dec(payload, ref.offset + 8);
    if (!checkpoint.has_header_) {
      std::string schema, key;
      if (!dec.ReadString(&schema).ok() || schema != kCheckpointSchema ||
          !dec.ReadString(&key).ok() || !dec.ExpectEnd().ok()) {
        return Status::InvalidArgument(
            checkpoint.dir_ + " is not a " + kCheckpointSchema +
            " log: the first record (" + where() + ") is not its header");
      }
      if (key != checkpoint.key_) {
        return Status::FailedPrecondition(
            "checkpoint key mismatch: " + checkpoint.dir_ + " has \"" + key +
            "\", sweep expects \"" + checkpoint.key_ + '"');
      }
      checkpoint.has_header_ = true;
      return Status::OK();
    }
    std::string fingerprint;
    ConfigOutcome outcome;
    Status decoded = DecodeOutcome(&dec, &fingerprint, &outcome);
    if (!decoded.ok()) {
      return Status::DataLoss(where() + ": " +
                              std::string(decoded.message()));
    }
    checkpoint.outcomes_[fingerprint] = std::move(outcome);
    return Status::OK();
  };
  Result<snapshot::WalReplayStats> replayed =
      snapshot::ReplayWal(checkpoint.dir_, restore);
  if (!replayed.ok()) return replayed.status();
  obs::MetricsRegistry::Global()
      .GetCounter("resilience.checkpoint.loaded_records")
      ->Add(checkpoint.outcomes_.size());
  return checkpoint;
}

std::optional<ConfigOutcome> SweepCheckpoint::Find(
    const rec::ModelConfig& config) const {
  auto it = outcomes_.find(config.Fingerprint());
  if (it == outcomes_.end()) return std::nullopt;
  ConfigOutcome outcome = it->second;
  outcome.config = config;
  return outcome;
}

Status SweepCheckpoint::Append(const ConfigOutcome& outcome) {
  MICROREC_FAULT_POINT(resilience::kSiteCheckpointWrite);
  if (writer_ == nullptr) {
    Result<std::unique_ptr<snapshot::WalWriter>> writer =
        snapshot::WalWriter::Open(dir_);
    if (!writer.ok()) return writer.status();
    writer_ = std::move(*writer);
  }
  if (!has_header_) {
    MICROREC_RETURN_IF_ERROR(writer_->Append(EncodeHeader(key_)));
    has_header_ = true;
  }
  MICROREC_RETURN_IF_ERROR(writer_->Append(EncodeOutcome(outcome)));
  outcomes_[outcome.config.Fingerprint()] = outcome;
  obs::MetricsRegistry::Global()
      .GetCounter("resilience.checkpoint.appends")
      ->Increment();
  return Status::OK();
}

std::string SweepCheckpointKey(const ExperimentRunner& runner,
                               corpus::Source source) {
  std::string key = "source=";
  key += corpus::SourceName(source);
  key += " seed=";
  key += std::to_string(runner.options().seed);
  return key;
}

Result<SweepResult> SweepConfigs(
    ExperimentRunner& runner, const std::vector<rec::ModelConfig>& configs,
    corpus::Source source, const SweepOptions& options) {
  const bool has_negatives = corpus::HasNegativeExamples(source);
  std::vector<rec::ModelConfig> valid;
  valid.reserve(configs.size());
  for (const rec::ModelConfig& config : configs) {
    if (config.IsValidForSource(has_negatives)) valid.push_back(config);
  }
  if (options.max_configs > 0) {
    valid = ThinConfigs(std::move(valid), options.max_configs);
  }

  std::optional<SweepCheckpoint> checkpoint;
  if (!options.checkpoint_path.empty()) {
    Result<SweepCheckpoint> opened = SweepCheckpoint::Open(
        options.checkpoint_path, SweepCheckpointKey(runner, source));
    if (!opened.ok()) return opened.status();
    checkpoint = std::move(*opened);
  }

  SweepResult sweep;
  auto& registry = obs::MetricsRegistry::Global();
  obs::Counter* configs_run = registry.GetCounter("eval.sweep.configs");
  obs::Counter* configs_failed = registry.GetCounter("eval.sweep.failed");
  obs::Counter* configs_resumed = registry.GetCounter("eval.sweep.resumed");

  for (const rec::ModelConfig& config : valid) {
    if (options.cancel != nullptr && options.cancel->cancelled()) {
      return Status::Aborted("sweep cancelled before " + config.ToString());
    }
    if (checkpoint.has_value()) {
      if (std::optional<ConfigOutcome> restored = checkpoint->Find(config)) {
        if (!restored->ok()) configs_failed->Increment();
        sweep.outcomes.push_back(std::move(*restored));
        ++sweep.resumed;
        configs_resumed->Increment();
        continue;
      }
    }

    // Dynamic span names cost a string build, so only when tracing is live.
    obs::TraceSpan span(obs::TracingEnabled() ? "config:" + config.ToString()
                                              : std::string());

    resilience::CancelContext cancel;
    cancel.token = options.cancel;
    if (options.config_timeout_seconds > 0.0) {
      cancel.deadline =
          resilience::Deadline::After(options.config_timeout_seconds);
    }

    ConfigOutcome outcome;
    outcome.config = config;
    std::optional<RunResult> run;
    // The sweep.config site models a failure in the sweep driver itself
    // (as opposed to inside the run); in isolation mode it is absorbed
    // like any per-configuration error.
    Status fault = resilience::FaultsArmed()
                       ? resilience::CheckFault(resilience::kSiteSweepConfig)
                       : Status::OK();
    if (fault.ok()) {
      outcome.status = resilience::RunWithRetry(
          options.retry,
          [&]() -> Status {
            Result<RunResult> attempt = runner.Run(config, source, &cancel);
            if (!attempt.ok()) return attempt.status();
            run = std::move(attempt).value();
            return Status::OK();
          },
          &cancel);
    } else {
      outcome.status = std::move(fault);
    }

    if (outcome.ok()) {
      outcome.result = std::move(*run);
      configs_run->Increment();
    } else {
      if (options.fail_fast) {
        return Status::FromCode(
            outcome.status.code(),
            "sweep aborted (fail-fast) at " + config.ToString() + ": " +
                std::string(outcome.status.message()));
      }
      configs_failed->Increment();
    }
    if (checkpoint.has_value()) {
      MICROREC_RETURN_IF_ERROR(checkpoint->Append(outcome));
    }
    sweep.outcomes.push_back(std::move(outcome));
  }
  return sweep;
}

Result<SweepResult> SweepConfigs(
    ExperimentRunner& runner, const std::vector<rec::ModelConfig>& configs,
    corpus::Source source, size_t max_configs) {
  SweepOptions options;
  options.max_configs = max_configs;
  return SweepConfigs(runner, configs, source, options);
}

std::vector<rec::ModelConfig> ThinConfigs(
    std::vector<rec::ModelConfig> configs, size_t max_configs) {
  if (configs.size() <= max_configs || max_configs == 0) return configs;
  std::vector<rec::ModelConfig> kept;
  kept.reserve(max_configs);
  // Even stride over [0, n-1] including both endpoints.
  for (size_t i = 0; i < max_configs; ++i) {
    size_t index = max_configs == 1
                       ? 0
                       : i * (configs.size() - 1) / (max_configs - 1);
    kept.push_back(configs[index]);
  }
  return kept;
}

}  // namespace microrec::eval
