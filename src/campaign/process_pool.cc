#include "campaign/process_pool.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <new>
#include <string>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include "campaign/execution_context.h"
#include "campaign/result_codec.h"
#include "common/wire.h"

namespace gremlin::campaign {

namespace {

// ---------------------------------------------------------------------------
// Shared-memory lease protocol.

// Ranges a dead worker claimed but never delivered wait here for a
// survivor. Sized far beyond any realistic crash count — overflow falls
// back to parent-inline execution.
constexpr uint32_t kRecoverySlots = 256;

// One anonymous MAP_SHARED page, mapped before fork, visible to parent and
// every worker. The cursor is the whole steady-state protocol: a lease is
// one fetch_add. The recovery ring only sees traffic when a worker dies.
struct SharedControl {
  std::atomic<uint64_t> cursor{0};
  std::atomic<uint32_t> done{0};
  std::atomic<uint32_t> ring_lock{0};  // spinlock over ring_count + ring
  uint32_t ring_count = 0;
  uint64_t total = 0;
  uint32_t workers = 1;  // procs × threads, for chunk sizing
  IndexRange ring[kRecoverySlots];
};

static_assert(std::atomic<uint64_t>::is_always_lock_free,
              "shared-memory cursor must be lock-free across processes");
static_assert(std::atomic<uint32_t>::is_always_lock_free,
              "shared-memory flags must be lock-free across processes");

class RingLock {
 public:
  explicit RingLock(SharedControl* ctl) : ctl_(ctl) {
    while (ctl_->ring_lock.exchange(1, std::memory_order_acquire) != 0) {
      // Contended only during crash recovery; critical sections are a few
      // loads/stores, so spinning is fine.
    }
  }
  ~RingLock() { ctl_->ring_lock.store(0, std::memory_order_release); }

 private:
  SharedControl* ctl_;
};

bool ring_pop(SharedControl* ctl, IndexRange* out) {
  if (ctl->ring_count == 0) return false;  // racy fast-path peek
  RingLock lock(ctl);
  if (ctl->ring_count == 0) return false;
  *out = ctl->ring[--ctl->ring_count];
  return true;
}

// Pushes as many of the n ranges as fit; returns how many were taken.
size_t ring_push(SharedControl* ctl, const IndexRange* ranges, size_t n) {
  RingLock lock(ctl);
  size_t pushed = 0;
  while (pushed < n && ctl->ring_count < kRecoverySlots) {
    ctl->ring[ctl->ring_count++] = ranges[pushed++];
  }
  return pushed;
}

std::vector<IndexRange> ring_ranges(SharedControl* ctl) {
  RingLock lock(ctl);
  return std::vector<IndexRange>(ctl->ring, ctl->ring + ctl->ring_count);
}

// Claims the next lease: recovery ranges first (a re-queued dead shard
// beats fresh tail work), then a cursor chunk (claim_chunk). Blocks polling
// the ring once the cursor is drained — the parent may still re-queue a
// crashed sibling's lease — and returns false only when the parent raises
// the done flag.
bool claim_lease(SharedControl* ctl, IndexRange* out) {
  for (;;) {
    if (ring_pop(ctl, out)) return true;
    if (claim_chunk(&ctl->cursor, ctl->total, ctl->workers, out)) return true;
    if (ctl->done.load(std::memory_order_acquire) != 0) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

// ---------------------------------------------------------------------------
// Pipe frames. A worker announces every lease before executing it, so the
// parent always knows which indices a dead worker owned.

constexpr uint8_t kLeaseFrame = 1;
constexpr uint8_t kResultFrame = 2;

// ---------------------------------------------------------------------------
// Worker (child) side.

struct WorkerShared {
  int fd = -1;
  std::mutex write_mu;  // frames from sibling threads must not interleave
  SharedControl* ctl = nullptr;
  const std::vector<Experiment>* experiments = nullptr;
  ExecOptions exec;
  bool warm_worlds = true;
  int threads = 1;
  std::atomic<bool> io_failed{false};
};

bool send_frame(WorkerShared* ws, const std::string& payload) {
  std::lock_guard lock(ws->write_mu);
  if (!wire::write_frame(ws->fd, payload)) {
    ws->io_failed.store(true, std::memory_order_relaxed);
    return false;
  }
  return true;
}

// One execution thread: a private ExecutionContext (warm worlds, symbol
// shard, pools — exactly what an in-process campaign worker binds), a loop
// of leases, one result frame per experiment. Identical inputs produce
// identical ExperimentResults regardless of which process or thread runs
// them, which is the whole byte-identity argument.
void worker_thread_loop(WorkerShared* ws) {
  ExecutionContext ctx(ws->warm_worlds);
  ScopedShardSymbols bind_symbols(&ctx.symbols());
  IndexRange lease;
  while (claim_lease(ws->ctl, &lease)) {
    {
      wire::Writer w;
      w.u8(kLeaseFrame);
      w.u64(lease.begin);
      w.u64(lease.end);
      if (!send_frame(ws, w.buffer())) return;  // parent died; stop quietly
    }
    for (uint64_t i = lease.begin; i < lease.end; ++i) {
      ExperimentResult result = ctx.execute((*ws->experiments)[i], ws->exec);
      ctx.merge();  // stringification boundary: names are strings below here
      wire::Writer w;
      w.u8(kResultFrame);
      w.u64(i);
      encode_result(result, &w);
      if (!send_frame(ws, w.buffer())) return;
    }
  }
}

[[noreturn]] void worker_main(WorkerShared* ws) {
  // SIGPIPE on a dead parent must not kill the worker mid-frame; write()
  // returns EPIPE and the loop exits instead.
  ::signal(SIGPIPE, SIG_IGN);
  if (ws->threads <= 1) {
    // Inline: no threads are ever created in the child (keeps forked
    // execution simple and sanitizer-friendly at the default 1 thread).
    worker_thread_loop(ws);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(ws->threads));
    for (int t = 0; t < ws->threads; ++t) {
      pool.emplace_back(worker_thread_loop, ws);
    }
    for (auto& t : pool) t.join();
  }
  // _exit: no destructors, no atexit — the child shares the parent's stdio
  // buffers and must not flush them a second time.
  ::close(ws->fd);
  ::_exit(ws->io_failed.load(std::memory_order_relaxed) ? 1 : 0);
}

// ---------------------------------------------------------------------------
// Parent side.

struct WorkerState {
  pid_t pid = -1;
  int fd = -1;
  bool alive = false;
  wire::FrameBuffer frames;
  std::vector<IndexRange> announced;  // leases this worker committed to
};

void mark_covered(std::vector<uint8_t>* covered, const IndexRange& r) {
  const uint64_t end = std::min<uint64_t>(r.end, covered->size());
  for (uint64_t i = std::min<uint64_t>(r.begin, end); i < end; ++i) {
    (*covered)[i] = 1;
  }
}

// Coalesces ascending indices into maximal contiguous ranges.
std::vector<IndexRange> to_ranges(const std::vector<uint64_t>& indices) {
  std::vector<IndexRange> out;
  for (const uint64_t i : indices) {
    if (!out.empty() && out.back().end == i) {
      ++out.back().end;
    } else {
      out.push_back(IndexRange{i, i + 1});
    }
  }
  return out;
}

}  // namespace

bool claim_chunk(std::atomic<uint64_t>* cursor, uint64_t total,
                 uint64_t workers, IndexRange* out) {
  constexpr uint64_t kMaxChunk = 64;
  uint64_t cur = cursor->load(std::memory_order_relaxed);
  while (cur < total) {
    const uint64_t chunk =
        std::clamp<uint64_t>((total - cur) / (workers * 4), 1, kMaxChunk);
    if (cursor->compare_exchange_weak(cur, cur + chunk,
                                      std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
      *out = IndexRange{cur, cur + chunk};
      return true;
    }
  }
  return false;
}

bool multiproc_available() { return true; }

CampaignResult run_multiproc(const std::vector<Experiment>& experiments,
                             const RunnerOptions& options,
                             const MultiprocHooks* hooks) {
  const auto start = std::chrono::steady_clock::now();
  const size_t n = experiments.size();

  CampaignResult campaign;
  campaign.experiments.resize(n);

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const int procs = static_cast<int>(
      std::min<size_t>(std::max(options.procs, 1), std::max<size_t>(n, 1)));
  // threads=0 splits the machine across the shards instead of
  // oversubscribing it procs times.
  const int threads =
      options.threads > 0
          ? options.threads
          : std::max(1, static_cast<int>(hw) / std::max(procs, 1));
  campaign.procs = procs;
  campaign.threads = threads;

  ExecOptions exec;
  exec.keep_latencies = options.keep_latencies;
  exec.early_exit = options.early_exit;
  exec.use_timer_wheel = options.use_timer_wheel;
  exec.use_snapshots = options.use_snapshots;

  // Everything below degrades to "parent runs it inline" — fork failure,
  // ring overflow, total worker die-off all land in these helpers.
  std::vector<uint8_t> delivered(n, 0);
  size_t delivered_count = 0;
  auto run_inline_one = [&](ExecutionContext* ctx, size_t i) {
    if (delivered[i]) return;
    campaign.experiments[i] = ctx->execute(experiments[i], exec);
    ctx->merge();
    delivered[i] = 1;
    ++delivered_count;
    if (options.on_result) options.on_result(campaign.experiments[i]);
  };
  auto run_inline_remaining = [&]() {
    ExecutionContext ctx(options.warm_worlds);
    ScopedShardSymbols bind_symbols(&ctx.symbols());
    for (size_t i = 0; i < n; ++i) run_inline_one(&ctx, i);
  };

  SharedControl* ctl = static_cast<SharedControl*>(
      ::mmap(nullptr, sizeof(SharedControl), PROT_READ | PROT_WRITE,
             MAP_SHARED | MAP_ANONYMOUS, -1, 0));
  if (ctl == MAP_FAILED) {
    run_inline_remaining();
    campaign.procs = 1;
    campaign.wall_clock = std::chrono::duration_cast<Duration>(
        std::chrono::steady_clock::now() - start);
    return campaign;
  }
  new (ctl) SharedControl;
  ctl->total = n;
  ctl->workers = static_cast<uint32_t>(procs * threads);

  WorkerShared ws;
  ws.ctl = ctl;
  ws.experiments = &experiments;
  ws.exec = exec;
  ws.warm_worlds = options.warm_worlds;
  ws.threads = threads;

  // Spawn shards. The parent closes each write end right after forking its
  // owner, and every child closes the read ends of earlier siblings it
  // inherited, so a crashed shard's EOF reaches the parent even while
  // other children live.
  std::vector<WorkerState> workers(static_cast<size_t>(procs));
  // Parent-buffered printf output would be duplicated into every child.
  std::fflush(nullptr);
  for (int w = 0; w < procs; ++w) {
    int fds[2];
    if (::pipe(fds) != 0) break;
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      break;
    }
    if (pid == 0) {
      // Child: keep only our write end.
      ::close(fds[0]);
      for (int other = 0; other < w; ++other) {
        if (workers[static_cast<size_t>(other)].fd >= 0) {
          ::close(workers[static_cast<size_t>(other)].fd);
        }
      }
      ws.fd = fds[1];
      worker_main(&ws);  // never returns
    }
    ::close(fds[1]);
    // Non-blocking reads: the parent drains whatever is buffered and gets
    // EAGAIN instead of blocking behind a tail-waiting worker.
    ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
    workers[static_cast<size_t>(w)].pid = pid;
    workers[static_cast<size_t>(w)].fd = fds[0];
    workers[static_cast<size_t>(w)].alive = true;
  }

  size_t alive = 0;
  for (const auto& w : workers) {
    if (w.alive) ++alive;
  }

  auto handle_frame = [&](WorkerState* w, std::string_view payload) {
    wire::Reader r(payload);
    const uint8_t type = r.u8();
    if (type == kLeaseFrame) {
      IndexRange lease;
      lease.begin = r.u64();
      lease.end = r.u64();
      if (r.ok()) w->announced.push_back(lease);
    } else if (type == kResultFrame) {
      const uint64_t index = r.u64();
      ExperimentResult result;
      if (!r.ok() || index >= n) return;
      if (!decode_result(&r, &result) || r.remaining() != 0) return;
      // Crash recovery can execute an index twice; deliveries are
      // byte-identical by determinism, keep the first.
      if (delivered[index]) return;
      campaign.experiments[index] = std::move(result);
      delivered[index] = 1;
      ++delivered_count;
      if (options.on_result) options.on_result(campaign.experiments[index]);
    }
  };

  // Re-queues every claimed-but-undelivered index that no live worker owns:
  // leases announced by dead workers, plus claims whose announcement died
  // in the pipe. Exact modulo in-flight announcements, and a false
  // positive only duplicates deterministic work.
  auto requeue_lost = [&]() {
    if (delivered_count >= n) return;
    const uint64_t cursor =
        std::min<uint64_t>(ctl->cursor.load(std::memory_order_acquire), n);
    std::vector<uint8_t> covered(n, 0);
    for (const auto& w : workers) {
      if (!w.alive) continue;
      for (const IndexRange& r : w.announced) mark_covered(&covered, r);
    }
    for (const IndexRange& r : ring_ranges(ctl)) mark_covered(&covered, r);
    std::vector<uint64_t> lost;
    for (uint64_t i = 0; i < cursor; ++i) {
      if (!delivered[i] && !covered[i]) lost.push_back(i);
    }
    if (lost.empty()) return;
    const std::vector<IndexRange> ranges = to_ranges(lost);
    size_t pushed = 0;
    if (alive > 0) {
      pushed = ring_push(ctl, ranges.data(), ranges.size());
      if (pushed == ranges.size()) return;
    }
    // No survivors (the main loop handles that wholesale) or ring overflow
    // (≥256 crashes — effectively unreachable): the parent absorbs the
    // un-queued ranges itself.
    ExecutionContext ctx(options.warm_worlds);
    ScopedShardSymbols bind_symbols(&ctx.symbols());
    for (size_t r = pushed; r < ranges.size(); ++r) {
      for (uint64_t i = ranges[r].begin; i < ranges[r].end; ++i) {
        run_inline_one(&ctx, static_cast<size_t>(i));
      }
    }
  };

  bool kill_hook_fired = false;
  char chunk[65536];
  while (delivered_count < n) {
    if (alive == 0) {
      run_inline_remaining();
      break;
    }

    if (hooks != nullptr && !kill_hook_fired &&
        delivered_count >= hooks->kill_first_worker_after_results &&
        workers[0].alive) {
      kill_hook_fired = true;
      ::kill(workers[0].pid, SIGKILL);
    }

    std::vector<pollfd> fds;
    std::vector<size_t> fd_worker;
    for (size_t i = 0; i < workers.size(); ++i) {
      if (!workers[i].alive) continue;
      fds.push_back(pollfd{workers[i].fd, POLLIN, 0});
      fd_worker.push_back(i);
    }
    const int ready = ::poll(fds.data(), fds.size(), 50);
    bool death = false;
    bool got_bytes = false;
    if (ready > 0) {
      for (size_t f = 0; f < fds.size(); ++f) {
        if ((fds[f].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        WorkerState& w = workers[fd_worker[f]];
        for (;;) {
          const ssize_t got = ::read(w.fd, chunk, sizeof(chunk));
          if (got < 0) {
            if (errno == EINTR) continue;
            break;  // nothing more right now
          }
          if (got == 0) {
            // EOF: clean exit never happens before the done flag, so this
            // worker crashed. Reap it and let requeue_lost re-shard its
            // unfinished leases.
            ::close(w.fd);
            w.alive = false;
            --alive;
            death = true;
            int status = 0;
            ::waitpid(w.pid, &status, 0);
            break;
          }
          got_bytes = true;
          w.frames.append(chunk, static_cast<size_t>(got));
          if (static_cast<size_t>(got) < sizeof(chunk)) break;
        }
        std::string payload;
        while (w.frames.next(&payload)) handle_frame(&w, payload);
      }
    }
    // Sweep for lost leases after a death, or when the stream has gone
    // quiet with work unaccounted for (covers announcements that died
    // mid-pipe: rare, but otherwise unrecoverable).
    if (death || (!got_bytes && ready <= 0)) requeue_lost();
  }

  // All results merged: release the tail-waiting workers and reap them.
  ctl->done.store(1, std::memory_order_release);
  for (auto& w : workers) {
    if (!w.alive) continue;
    // Drain to EOF; any frames still in flight are duplicates of
    // already-delivered indices. The fd is non-blocking, so wait out the
    // worker's exit path on EAGAIN.
    for (;;) {
      const ssize_t got = ::read(w.fd, chunk, sizeof(chunk));
      if (got == 0) break;
      if (got > 0 || errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ::close(w.fd);
    int status = 0;
    ::waitpid(w.pid, &status, 0);
    w.alive = false;
  }
  ::munmap(ctl, sizeof(SharedControl));

  campaign.wall_clock = std::chrono::duration_cast<Duration>(
      std::chrono::steady_clock::now() - start);
  return campaign;
}

}  // namespace gremlin::campaign
