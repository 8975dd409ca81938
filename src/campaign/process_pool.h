// Multi-process campaign sharding: fork N worker processes, lease
// experiment-index ranges to them through a shared-memory atomic cursor,
// stream results back over per-worker pipes, and merge in experiment order
// so the campaign is byte-identical to a single-process run.
//
// Why processes: the in-process workers already share nothing but the work
// queue (ExecutionContext, PR 6), but one process is still one heap, one
// page table, and one global symbol index. Forked shards give the kernel
// whole cores to schedule independently and cap the blast radius of a
// crashing experiment to its shard.
//
// Protocol (docs/PERFORMANCE.md has the full write-up):
//
//   parent                                 worker (forked, one per shard)
//   ------                                 ------------------------------
//   mmap(MAP_SHARED) SharedControl         claim lease: cursor.fetch_add
//   fork workers, one pipe each            (adaptive chunk: remaining /
//   poll pipes, reassemble frames           (workers*4), clamped [1,64] —
//   mark delivered[index]                   fast workers drain the tail)
//   on EOF: waitpid, requeue the dead      announce lease frame, then per
//   worker's undelivered lease onto        experiment one result frame
//   the recovery ring (survivors pick      (length-prefixed; result codec)
//   it up; none left → run inline)         cursor drained → poll recovery
//   all delivered → done flag              ring until parent sets done
//
// Every index is executed by exactly one worker in the steady state; a
// crashed shard's undelivered indices are re-queued (or re-run inline by
// the parent), so worker death costs wall-clock, never correctness. The
// occasional duplicate execution during crash recovery is benign: results
// are deterministic, and the parent keeps the first delivery.
//
// Workers inherit the experiment list by fork (copy-on-write) — only
// results cross the process boundary, as plain stringified bytes (the
// shard interner's stable stringification runs before encoding), so
// shard-local Symbol ids never leak between processes.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "campaign/runner.h"

namespace gremlin::campaign {

// A half-open range of experiment indices.
struct IndexRange {
  uint64_t begin = 0;
  uint64_t end = 0;
};

// The lease rule every campaign worker claims work with, in-process thread
// or forked shard: the next chunk of [0, total) off `cursor`, sized
// remaining / (workers × 4) and clamped to [1, 64]. Early chunks amortize
// the claim; the tail degenerates to single experiments that whoever is
// fast drains, and a crashed shard re-queues bounded work. False once the
// cursor is drained.
bool claim_chunk(std::atomic<uint64_t>* cursor, uint64_t total,
                 uint64_t workers, IndexRange* out);

// Test-only knobs for the crash-recovery path.
struct MultiprocHooks {
  // SIGKILL the first worker process once this many results have been
  // delivered to the parent (SIZE_MAX = never). The campaign must still
  // merge byte-identically (tests/multiproc_test.cc).
  size_t kill_first_worker_after_results = static_cast<size_t>(-1);
};

// True when this platform can fork worker processes (POSIX). When false,
// CampaignRunner silently falls back to in-process execution.
bool multiproc_available();

// Runs the campaign across options.procs forked workers, each hosting
// options.threads execution threads (0 → hardware_concurrency / procs,
// min 1). Byte-identical to CampaignRunner(options).run(experiments) at
// procs=1 for every procs × threads combination. options.on_result fires
// on the parent, in delivery order.
CampaignResult run_multiproc(const std::vector<Experiment>& experiments,
                             const RunnerOptions& options,
                             const MultiprocHooks* hooks = nullptr);

}  // namespace gremlin::campaign
