// The benchmark's workloads. Each fills `out` with its end-to-end metrics,
// its per-layer metrics when args.trace is set, its accounting and its
// correctness gates; a non-OK status means the workload could not run.
#ifndef MICROREC_PERFBENCH_WORKLOADS_H_
#define MICROREC_PERFBENCH_WORKLOADS_H_

#include "harness/common.h"

namespace perfbench {

Status RunEvalGrid(const Args& args, Outcome* out);
Status RunServeTimeline(const Args& args, Outcome* out);
Status RunServeIngest(const Args& args, Outcome* out);

}  // namespace perfbench

#endif  // MICROREC_PERFBENCH_WORKLOADS_H_
