// Shard worker process entry point (DESIGN.md §16).
//
// A worker is a forked+exec'd copy of the coordinator's own binary (or the
// dedicated `idg-shard-worker` tool) whose stdin/stdout are the two ends of
// a socketpair speaking IDGSHRD1 (shard/protocol.hpp). It lives as long as
// its backend's pool and serves many calls. Its life is one loop over
// three kinds of frame:
//   * a context (parameters, plan parts, uvw, A-terms, flags, kernel set),
//     decoded once and kept until the next context replaces it;
//   * a call (skip mask plus visibilities or grid), acknowledged with the
//     call's scrub report;
//   * shard assignments of the current call, executed group by group
//     through the Processor's group steps, each with bounded retries —
//     gridding ships each group's post-FFT subgrids back straight from its
//     scratch buffer (the adder runs only in the coordinator, in ascending
//     group order, keeping the grid bit-identical to a single-process run),
//     degridding ships each group's predicted rects.
// The worker exits 0 when the coordinator closes its channel.
//
// Workers re-arm fault injection first thing (Injector::rearm_for_worker):
// IDG_FAULT_WORKER replaces inherited arms so tests can fault only workers,
// and fire counts reset so respawned workers replay deterministic
// schedules; the counts then last for the worker's lifetime, across its
// calls. The IDG_SHARD_TEST_DIE hook ("<group>[@<call>]:<marker-path>")
// makes exactly one worker SIGKILL itself before computing a chosen group,
// optionally only in its own <call>-th call — the deterministic mid-shard
// kill the parity tests and the CI kill-and-rebalance job drive.
#pragma once

namespace idg::shard {

/// argv[1] sentinel that turns any binary calling maybe_run_worker() into
/// a shard worker (the coordinator spawns workers from /proc/self/exe by
/// default).
inline constexpr const char* kWorkerFlag = "--idg-shard-worker";

/// True when argv requests worker mode (argv[1] == kWorkerFlag).
bool is_worker_invocation(int argc, char** argv);

/// Runs the worker protocol loop over the given fds (stdin/stdout of the
/// exec'd child). Returns the process exit code: 0 when the coordinator
/// closes the channel, 1 after a fatal error (logged to stderr).
int worker_entry(int in_fd = 0, int out_fd = 1);

/// Dispatches to worker_entry() when argv requests worker mode; returns
/// -1 otherwise (the caller proceeds with its normal main). Call this
/// before anything else in main() of every binary that coordinates shards.
int maybe_run_worker(int argc, char** argv);

}  // namespace idg::shard
