// microrec_perfbench: one workload of the benchmark per process.
//
//   microrec_perfbench --generate --corpus=<dir>
//       writes the medium-scale synthetic corpus (the workload input; its
//       generator seed is fixed, see kCorpusSeed)
//   microrec_perfbench --workload=<name> --corpus=<dir> --work-dir=<dir>
//       --seed=<n> --seconds=<s> --trace=<0|1> [--spans=<path>]
//       runs one workload; the last stdout line is the JSON result
//
// Flags go through util/cli_flags' FlagParser: unknown or repeated flags,
// a flag without `=value`, and stray positional arguments exit non-zero.
// perfbench/run.py builds this program and runs it from the benchmark's
// command line.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "corpus/io.h"
#include "harness/common.h"
#include "harness/spans.h"
#include "harness/workloads.h"
#include "synth/generator.h"
#include "util/cli_flags.h"

namespace {

using perfbench::Args;
using perfbench::Outcome;
using perfbench::Result;
using perfbench::Status;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Generate(const Args& args) {
  microrec::synth::DatasetSpec spec = microrec::synth::DatasetSpec::Medium();
  spec.seed = perfbench::kCorpusSeed;
  Result<microrec::synth::SyntheticDataset> dataset =
      microrec::synth::GenerateDataset(spec);
  if (!dataset.ok()) return Fail(dataset.status());
  if (Status st = microrec::corpus::SaveCorpus(dataset->corpus, args.corpus_dir);
      !st.ok()) {
    return Fail(st);
  }
  std::fprintf(stderr,
               "corpus: %zu users, %zu tweets (generator seed %llu)\n",
               dataset->corpus.num_users(), dataset->corpus.num_tweets(),
               static_cast<unsigned long long>(spec.seed));
  return 0;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void PrintResult(const Outcome& out) {
  std::string json = "{\"correct\": ";
  json += out.gate_failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : out.metrics) {
    json += first ? "" : ", ";
    json += "\"" + name + "\": {\"value\": " + JsonNumber(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::fflush(stderr);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool generate = false;
  uint64_t trace = 0;
  microrec::FlagParser parser(
      "microrec_perfbench (--generate | --workload=<name>) --corpus=<dir> "
      "[--seed=<n> --work-dir=<dir> --seconds=<s> --trace=<0|1> "
      "--spans=<path>]");
  parser.AddBool("generate", &generate, "write the workload corpus and exit");
  parser.AddString("workload", &args.workload,
                   "eval_grid | serve_timeline | serve_ingest");
  parser.AddUint64("seed", &args.seed,
                   "experiment and request-generator seed");
  parser.AddDouble("seconds", &args.seconds, "measured time per run");
  parser.AddUint64("trace", &trace, "1 = also make the traced run");
  parser.AddString("corpus", &args.corpus_dir, "corpus directory");
  parser.AddString("work-dir", &args.work_dir,
                   "private per-run directory for snapshots and state");
  parser.AddString("spans", &args.spans_path,
                   "where the traced run writes its spans (Chrome JSON)");
  Result<std::vector<std::string>> positional =
      parser.Parse(std::vector<std::string>(argv + 1, argv + argc));
  if (!positional.ok()) return Fail(positional.status());
  if (!positional->empty()) {
    return Fail(Status::InvalidArgument("unexpected argument '" +
                                        positional->front() +
                                        "'; flags are written --name=value"));
  }
  if (args.corpus_dir.empty()) {
    return Fail(Status::InvalidArgument("--corpus is required"));
  }
  if (generate) return Generate(args);
  if (trace > 1 || !(args.seconds > 0) || args.work_dir.empty()) {
    return Fail(Status::InvalidArgument(
        "need --trace=0|1, --seconds > 0 and --work-dir\n" + parser.Help()));
  }
  args.trace = trace == 1;

  // The host's speed before and after the workload: a fixed loop that
  // moves between runs points at the machine, not the program.
  const double calibration_before = perfbench::HostCalibrationMs();
  Outcome out;
  Status status;
  if (args.workload == "eval_grid") {
    status = perfbench::RunEvalGrid(args, &out);
  } else if (args.workload == "serve_timeline") {
    status = perfbench::RunServeTimeline(args, &out);
  } else if (args.workload == "serve_ingest") {
    status = perfbench::RunServeIngest(args, &out);
  } else {
    status = Status::InvalidArgument("unknown workload '" + args.workload + "'");
  }
  if (!status.ok()) return Fail(status);
  const double calibration_after = perfbench::HostCalibrationMs();
  std::fprintf(stderr, "host calibration loop: %.2f ms before, %.2f ms after\n",
               calibration_before, calibration_after);
  if (args.trace) {
    out.Set("bench.host_calib_ms", (calibration_before + calibration_after) / 2,
            "ms");
  }
  if (args.trace && !args.spans_path.empty() &&
      !perfbench::Tracer::Get().WriteChromeTrace(args.spans_path)) {
    return Fail(Status::Internal("cannot write spans to " + args.spans_path));
  }
  PrintResult(out);
  return 0;
}
