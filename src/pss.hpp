// Umbrella header: the full public API of the profitable-speed-scaling
// library. Include this for exploratory use; production code should include
// the specific module headers it needs.
#pragma once

// The problem domain: jobs, machines, schedules, cost (Section 2).
#include "model/instance.hpp"
#include "model/interval_store.hpp"
#include "model/power.hpp"
#include "model/schedule.hpp"
#include "model/time_partition.hpp"
#include "model/work_assignment.hpp"

// Chen et al.'s per-interval optimal multiprocessor schedule (Section 2.2).
#include "chen/insertion_curve.hpp"
#include "chen/interval_schedule.hpp"
#include "chen/realize.hpp"

// Convex-programming machinery: solvers, duals, certificates (Section 2.1, 4).
#include "convex/brute_force.hpp"
#include "convex/dual.hpp"
#include "convex/kkt.hpp"
#include "convex/solver.hpp"
#include "convex/water_fill.hpp"

// The paper's contribution and its extensions (Section 3).
#include "core/curve_cache.hpp"
#include "core/discrete_speeds.hpp"
#include "core/fractional_pd.hpp"
#include "core/online_state.hpp"
#include "core/pd_scheduler.hpp"
#include "core/reference_pd.hpp"
#include "core/rejection.hpp"
#include "core/run.hpp"

// Published baselines.
#include "baselines/algorithms.hpp"
#include "baselines/avr.hpp"
#include "baselines/bkp.hpp"
#include "baselines/replan_engine.hpp"
#include "baselines/yds.hpp"

// Ingest front end: admission control, session spill, binary op logs.
#include "ingest/admission.hpp"
#include "ingest/op_log.hpp"
#include "ingest/spill.hpp"

// The sharded multi-stream serving engine (systems layer over core).
#include "stream/engine.hpp"
#include "stream/replay.hpp"
#include "stream/router.hpp"
#include "stream/session_table.hpp"
#include "stream/spsc_queue.hpp"

// Workloads, experiments, I/O.
#include "io/instance_io.hpp"
#include "io/schedule_io.hpp"
#include "sim/compare.hpp"
#include "sim/experiment.hpp"
#include "sim/metrics.hpp"
#include "sim/stream_sweep.hpp"
#include "workload/generators.hpp"

// Utilities used throughout the public API (seeded RNG, result tables,
// piecewise-linear curves, the parallel-for used by experiment sweeps).
#include "util/parallel.hpp"
#include "util/piecewise_linear.hpp"
#include "util/random.hpp"
#include "util/table.hpp"
