// Dynamic-lease orchestration: one coordinator, N persistent workers.
//
// PR 3/4 distributed a campaign as a *static* partition — shard K/N owns
// the ids with id % N == K-1, fixed before any worker starts. The
// orchestrator replaces that with dynamic **leases**: contiguous id
// ranges handed out from the front of the plan as workers become idle,
// so a slow worker holds up one lease, not 1/N of the campaign, and a
// preempted worker's unfinished lease is simply re-leased to whoever is
// alive. Workers are *persistent*: they parse the plan and re-freeze the
// COW prototype once per process, then drain any number of leases — the
// per-process costs that dominate the static-shard overhead
// (BENCH_perf_injection.json's shard_wire_overhead_pct) are paid once,
// not once per work slice.
//
// Liveness is event-driven, not exit-driven: with a remote transport a
// dead host never delivers an exit status, so workers heartbeat (PING at
// every checkpoint flush) and the orchestrator runs a deadman timer — a
// busy worker silent for longer than `deadman_ms` is killed through the
// transport, its lease re-leased, and a replacement spawned within the
// respawn budget. The clock is injectable, so the deadman path is unit-
// tested without waiting on wall time.
//
// When the only remaining work is a straggler's large in-flight lease,
// the orchestrator steals from it: the worker yields the undrained tail
// at its next checkpoint boundary (YIELD), the tail becomes a fresh
// lease granted to an idle worker, and `merge` — which accepts any
// disjoint covering partition — still reproduces the single-process
// bytes exactly.
//
// The orchestrator talks to workers through the Transport interface and
// is itself single-threaded and deterministic in its *output*: every
// lease is drained deterministically by whichever worker gets it and the
// final merge keys on stable ids — so the merged CampaignResult is
// byte-identical to a single-process run no matter how leases were
// scheduled, split, or re-leased.
//
// Transports: LocalProcessTransport (forked workers over pipes),
// ShmLocalTransport (the same, the plan shared through an mmap'd arena),
// TcpTransport (net/transport_tcp.hpp, remote workers over sockets). All
// three run one framed worker session per worker (core/transport.hpp)
// speaking the versioned protocol of core/protocol.hpp.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/wire.hpp"
#include "core/work_source.hpp"

namespace ep::core {

/// Orchestration failed in a way re-leasing cannot fix: a worker died
/// with a non-preemption status, broke the protocol, spoke the wrong
/// protocol version, or the respawn budget ran out while leases were
/// still outstanding.
class OrchestratorError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One unit of handed-out work: the plan's id range [begin, end).
/// `seq` is the lease's stable identity: partition leases take their
/// position (0-based, ascending id order) and stolen tails take fresh
/// seqs past the partition — re-leasing preserves seq, so reports and
/// diagnostics name the same lease no matter which worker finished it.
struct Lease {
  std::size_t seq = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// What a Transport reports back from the worker fleet. The kind says
/// exactly what the orchestrator should do next; transports own the
/// classification (exit statuses, signals, BYE frames, dropped sockets).
struct WorkerEvent {
  enum class Kind {
    lease_done,     ///< finished `lease`; `report` holds its outcomes
    lease_yielded,  ///< answered STEAL: keeps [lease.begin, yield_mid),
                    ///< surrendered [yield_mid, lease.end) for re-grant
    heartbeat,      ///< PING (or HELLO): liveness only, no work attached
    preempted,      ///< worker gone; re-lease + respawn is the answer
    died,           ///< worker gone; retrying will only fail again
    exited,         ///< worker gone cleanly (status 0) after EXIT
  };
  Kind kind = Kind::died;
  std::size_t worker = 0;
  Lease lease;              // lease_done / lease_yielded
  ShardReport report;       // lease_done: the (leased, complete) report
  std::string label;        // lease_done: report source for diagnostics
  std::size_t yield_mid = 0;  // lease_yielded: the split point
  int status = 0;           // preempted/died/exited: exit code, -signo
                            // when killed, -1 for a dropped connection
};

/// The orchestrator's view of a worker fleet. Implementations own the
/// worker lifecycle; the orchestrator only schedules. All calls come
/// from one thread.
class Transport {
 public:
  virtual ~Transport() = default;
  /// Start (or adopt) one worker; returns its id (never reused), or
  /// nullopt when no worker is available right now — a tcp coordinator
  /// with nothing in its accept queue. Throws on hard failure.
  virtual std::optional<std::size_t> spawn() = 0;
  /// Hand `lease` to `worker` without blocking. Submitting to a worker
  /// that already died is not an error here — the death surfaces as a
  /// preempted/died event from wait_any() and the lease is re-leased.
  virtual void submit(std::size_t worker, const Lease& lease) = 0;
  /// Ask `worker` to yield the undrained tail of its in-flight lease at
  /// its next checkpoint boundary. Best-effort: a worker that finishes
  /// first just sends its DONE and the steal is moot. Default: no-op.
  virtual void steal(std::size_t worker) { (void)worker; }
  /// Ship search-generated work items plan.items[begin, end) to `worker`
  /// before a lease over them is submitted (the FEEDBACK protocol line):
  /// a growing-plan source appends items the worker's serialized plan
  /// copy predates, and the worker appends them to its local plan by the
  /// same stable ids. Only search drains call this; transports that
  /// predate the search plane inherit the throwing default.
  virtual void feedback(std::size_t worker, const InjectionPlan& plan,
                        std::size_t begin, std::size_t end) {
    (void)worker;
    (void)plan;
    (void)begin;
    (void)end;
    throw OrchestratorError(
        "orchestrate: this transport does not support search feedback "
        "(FEEDBACK is worker protocol v3)");
  }
  /// Block until any worker produces an event, or `timeout_ms`
  /// milliseconds pass (nullopt — the deadman's polling edge).
  /// timeout_ms < 0 blocks indefinitely. Calling with no live workers is
  /// a caller bug; implementations throw rather than hang.
  virtual std::optional<WorkerEvent> wait_any(long timeout_ms) = 0;
  /// Ask `worker` to exit cleanly once idle; its exit still arrives as
  /// an exited/preempted event.
  virtual void shutdown(std::size_t worker) = 0;
  /// Forcibly terminate `worker` right now — kill + reap a local
  /// process, drop a socket. No further events arrive for it; the
  /// caller updates its own bookkeeping. The deadman's hammer.
  virtual void kill(std::size_t worker) = 0;
};

/// Ceiling on work-stealing splits per campaign. The budget bounds steal
/// churn: every split costs a STEAL/YIELD round trip and a fresh lease,
/// and a straggler whose tails keep getting re-stolen would otherwise
/// trade drain time for protocol traffic without end.
inline constexpr std::size_t kMaxLeaseSplits = 8;

struct OrchestratorOptions {
  /// Target worker count. The orchestrator spawns at most this many at
  /// once and replaces preempted ones while work remains.
  int workers = 2;
  /// Work items per lease. 0 = auto: the plan split into roughly four
  /// leases per worker, the classic dynamic-scheduling grain — small
  /// enough to rebalance around stragglers and preemptions, large enough
  /// that per-lease costs stay marginal.
  std::size_t lease_items = 0;
  /// How many replacement workers may be spawned after preemptions
  /// before the orchestrator gives up. 0 = auto (lease count + twice the
  /// worker count): a fleet where every worker is preempted once per
  /// lease still finishes, a fleet that dies faster than it drains does
  /// not spin forever.
  std::size_t max_respawns = 0;
  /// Deadman timeout: a *busy* worker heard from (grant, PING, YIELD)
  /// more than this many milliseconds ago is killed and its lease
  /// re-leased. 0 = off. Workers heartbeat at checkpoint flushes, so a
  /// useful deadman needs checkpointing enabled and a timeout
  /// comfortably above the slowest checkpoint interval. Idle workers
  /// are exempt — they hold no work worth recovering.
  long long deadman_ms = 0;
  /// The deadman's clock, milliseconds, monotonic. Unset = steady_clock.
  /// Injectable so unit tests drive expiry without waiting.
  std::function<long long()> now_ms;
};

/// The auto lease grain (OrchestratorOptions::lease_items = 0) for
/// `items` items over `workers` workers: roughly four leases per worker,
/// never below one item.
std::size_t auto_lease_grain(std::size_t items, std::size_t workers);

/// The lease partition orchestrate() deals out for a plan (or one search
/// wave) of `plan_items` items under `opts`: contiguous ranges,
/// ascending, with seq = position, cut at opts.lease_items or the
/// auto_lease_grain(). The orchestrator cuts every wave with it, so
/// callers can predict the exact ranges it will schedule. Throws
/// OrchestratorError when opts.workers < 1.
std::vector<Lease> lease_partition(std::size_t plan_items,
                                   const OrchestratorOptions& opts);

struct OrchestratorStats {
  std::size_t leases_total = 0;      ///< fixed partition size
  std::size_t leases_granted = 0;    ///< submits, re-grants included
  std::size_t leases_released = 0;   ///< grants that redid preempted work
  std::size_t leases_split = 0;      ///< stolen tails granted as leases
  std::size_t workers_spawned = 0;   ///< initial fleet + replacements
  std::size_t workers_preempted = 0;
  std::size_t deadman_expiries = 0;  ///< silent workers the deadman shot
};

/// Drain `plan` through the transport's workers under dynamic leases and
/// merge the lease reports into the CampaignResult a single process
/// would have produced — byte-identical output for any worker count,
/// lease size, preemption pattern, or steal schedule. Throws
/// OrchestratorError on worker failure or budget exhaustion, WireError
/// if a worker's report does not add back up to the plan.
CampaignResult orchestrate(const InjectionPlan& plan, Transport& transport,
                           const OrchestratorOptions& opts = {},
                           OrchestratorStats* stats = nullptr);

/// The generalized drain behind orchestrate(): lease out a WorkSource's
/// item stream wave by wave. Each wave is partitioned into leases by
/// lease_partition() (applied to the wave size, offset to the wave),
/// drained by the persistent fleet, and absorbed back into the source
/// before the next wave is generated — the feedback loop that drives
/// coverage-guided search. Workers that predate appended items get them
/// via Transport::feedback before their lease is submitted;
/// `known_items` says how many plan items the workers' serialized plan
/// copies already carry (orchestrate() passes the full plan size, so
/// the exhaustive path never sends FEEDBACK and stays byte-identical).
/// The final result merges every wave's lease reports — plus any
/// checkpoint-replayed reports the source carries — exactly like
/// orchestrate() merges its single wave.
CampaignResult orchestrate_source(WorkSource& source, Transport& transport,
                                  const OrchestratorOptions& opts,
                                  OrchestratorStats* stats,
                                  std::size_t known_items);

}  // namespace ep::core
