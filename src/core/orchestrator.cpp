#include "core/orchestrator.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <map>
#include <utility>
#include <vector>

namespace ep::core {

namespace {

std::string describe_exit(const WorkerEvent& ev) {
  if (ev.status == -1) return "connection lost";
  return ev.status < 0
             ? "killed by signal " + std::to_string(-ev.status)
             : "exit status " + std::to_string(ev.status);
}

long long steady_now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::size_t auto_lease_grain(std::size_t items, std::size_t workers) {
  return std::max<std::size_t>(1, items / (workers * 4));
}

std::vector<Lease> lease_partition(std::size_t plan_items,
                                   const OrchestratorOptions& opts) {
  if (opts.workers < 1)
    throw OrchestratorError("orchestrate: workers must be >= 1");
  const std::size_t lease_items =
      opts.lease_items != 0
          ? opts.lease_items
          : auto_lease_grain(plan_items,
                             static_cast<std::size_t>(opts.workers));
  std::vector<Lease> leases;
  for (std::size_t begin = 0; begin < plan_items; begin += lease_items)
    leases.push_back(
        {leases.size(), begin, std::min(begin + lease_items, plan_items)});
  return leases;
}

CampaignResult orchestrate(const InjectionPlan& plan, Transport& transport,
                           const OrchestratorOptions& opts,
                           OrchestratorStats* stats) {
  // The exhaustive path as one client of the WorkSource seam: a single
  // wave covering the whole fixed plan, partitioned by lease_partition(),
  // so the scheduling (and merged bytes) are the pre-seam ones.
  PlanWorkSource source(plan);
  Fleet fleet(transport, opts);
  CampaignResult result = fleet.drain(source, opts.lease_items, stats);
  fleet.close(stats);
  return result;
}

// --- Fleet ------------------------------------------------------------------

Fleet::Fleet(Transport& transport, OrchestratorOptions opts)
    : transport_(transport),
      opts_(std::move(opts)),
      workers_(opts_.workers < 1 ? 0
                                 : static_cast<std::size_t>(opts_.workers)),
      now_(opts_.now_ms ? opts_.now_ms
                        : std::function<long long()>(steady_now_ms)) {
  if (opts_.workers < 1)
    throw OrchestratorError("orchestrate: workers must be >= 1");
}

bool Fleet::spawn_one(OrchestratorStats& st) {
  std::optional<std::size_t> w = transport_.spawn();
  if (!w) return false;
  // A fresh worker holds the plan the transport serialized at
  // construction — the first drain's, spawn_items_ items — no matter
  // which drain or wave it joins.
  if (!slots_.emplace(*w, Slot{true, false, {}, now_(), 0, spawn_items_})
           .second)
    throw OrchestratorError("orchestrate: transport reused worker id " +
                            std::to_string(*w));
  ++st.workers_spawned;
  ++live_;
  return true;
}

std::size_t Fleet::busy_count() const {
  std::size_t c = 0;
  for (const auto& [w, slot] : slots_)
    if (slot.live && slot.busy()) ++c;
  return c;
}

// Refill the fleet while there is more work than live workers can hold,
// within the respawn budget. Budget exhausted (or no worker available)
// with none left is fatal; with some left, the fleet just runs smaller.
// The auto budget tracks leases dealt so far across every drain, which
// for a single-wave exhaustive drain is the classic partition size.
void Fleet::refill(std::size_t pending, OrchestratorStats& st) {
  const std::size_t remaining = pending + busy_count();
  const std::size_t respawn_budget =
      opts_.max_respawns ? opts_.max_respawns : leases_dealt_ + 2 * workers_;
  while (live_ < std::min(workers_, remaining)) {
    if (respawns_used_ >= respawn_budget) {
      if (live_ == 0)
        throw OrchestratorError(
            "orchestrate: worker respawn budget (" +
            std::to_string(respawn_budget) + ") exhausted with " +
            std::to_string(remaining) +
            " lease(s) outstanding — workers are being preempted "
            "faster than they drain");
      break;
    }
    if (!spawn_one(st)) {
      if (live_ == 0)
        throw OrchestratorError(
            "orchestrate: every worker is gone and the transport has "
            "no replacement, with " + std::to_string(remaining) +
            " lease(s) outstanding");
      break;
    }
    ++respawns_used_;
  }
}

// A gone worker's leases go back to the front of the queue, in their
// grant order — finish what was started before opening new ranges.
void Fleet::release(Slot& slot, std::deque<Held>& pending, const Stats& st) {
  for (auto h = slot.leases.rbegin(); h != slot.leases.rend(); ++h) {
    ++st[h->lane]->leases_released;
    pending.push_front(*h);
  }
  slot.leases.clear();
  slot.steal_pending = false;
}

// A busy worker heard from too long ago is dead to us: kill it through
// the transport (no further events), take its leases back, and let
// refill() replace it. The expiry counts toward the lane of the lease it
// was draining. Returns true when anyone expired.
bool Fleet::reap_expired(std::deque<Held>& pending, const Stats& st) {
  if (opts_.deadman_ms <= 0) return false;
  bool any = false;
  const long long t = now_();
  for (auto& [w, slot] : slots_) {
    if (!slot.live || !slot.busy()) continue;
    if (t - slot.last_heard < opts_.deadman_ms) continue;
    OrchestratorStats& lane = *st[slot.leases.front().lane];
    transport_.kill(w);
    slot.live = false;
    --live_;
    release(slot, pending, st);
    ++lane.workers_preempted;
    ++lane.deadman_expiries;
    any = true;
  }
  return any;
}

// How long wait_any may block: until the earliest possible deadman expiry
// among busy workers (so silence is noticed on time), forever when the
// deadman is off.
long Fleet::poll_timeout() const {
  if (opts_.deadman_ms <= 0) return -1;
  long long earliest = -1;
  const long long t = now_();
  for (const auto& [w, slot] : slots_) {
    if (!slot.live || !slot.busy()) continue;
    long long left = slot.last_heard + opts_.deadman_ms - t;
    if (left < 1) left = 1;
    if (earliest < 0 || left < earliest) earliest = left;
  }
  return static_cast<long>(earliest);
}

CampaignResult Fleet::drain(WorkSource& source, std::size_t lease_items,
                            OrchestratorStats* stats) {
  return std::move(drain({Lane{&source, lease_items, stats}}).front());
}

std::vector<CampaignResult> Fleet::drain(const std::vector<Lane>& lanes) {
  // One drain's state per lane. `outstanding` counts the lane's leases
  // not yet reported (pending or held by a worker); at zero the lane's
  // wave barrier is reached.
  struct Run {
    WorkSource* source = nullptr;
    std::size_t plan_index = 0;
    OrchestratorOptions wave_opts;
    OrchestratorStats local_stats;
    std::vector<ShardReport> reports;
    std::vector<std::string> labels;
    std::size_t next_seq = 0;
    std::size_t splits_used = 0;
    std::size_t outstanding = 0;
    bool done = false;
  };
  std::vector<Run> runs(lanes.size());
  Stats st(lanes.size());
  std::vector<CampaignResult> results(lanes.size());
  // The construction plan is the first drain's plan as it stands now.
  if (drain_ == 0 && !lanes.empty())
    spawn_items_ = lanes.front().source->plan().items.size();

  // Leases of every lane share one queue, lane by lane. Within a lane,
  // leases across all waves share one seq space: each wave's partition
  // takes the next positions in grant order and stolen tails take fresh
  // seqs, so a seq names the same id range for the whole drain. The
  // split budget (kMaxLeaseSplits) is likewise per lane.
  std::deque<Held> pending;
  std::size_t lanes_left = lanes.size();

  // Reports from earlier waves (and resumed checkpoints) were written
  // against a shorter plan; the drain grew it. Their leases and
  // outcomes are unchanged — rebase the plan_items header on the final
  // size so the merge's consistency checks see one plan. A no-op for
  // the exhaustive path (every report already carries the full size).
  auto finish = [&](std::size_t l) {
    Run& run = runs[l];
    const InjectionPlan& plan = run.source->plan();
    for (ShardReport& r : run.reports) r.plan_items = plan.items.size();
    results[l] = run.reports.empty()
                     ? result_skeleton(plan)
                     : merge_shard_reports(plan, run.reports, run.labels);
    run.done = true;
    --lanes_left;
  };
  // The lane's next wave, partitioned with lease_partition() applied to
  // the wave size and offset to the wave — identical ranges (and seqs)
  // to the classic partition for the single full-plan wave — or the
  // lane's merge when its source has no more work. Returns the items
  // queued.
  auto next_wave = [&](std::size_t l) -> std::size_t {
    Run& run = runs[l];
    const std::pair<std::size_t, std::size_t> wave = run.source->next_wave();
    if (wave.first == wave.second) {
      finish(l);
      return 0;
    }
    for (const Lease& p :
         lease_partition(wave.second - wave.first, run.wave_opts)) {
      pending.push_back(
          {l, {run.next_seq++, wave.first + p.begin, wave.first + p.end}});
      ++run.outstanding;
      ++st[l]->leases_total;
      ++leases_dealt_;
    }
    return wave.second - wave.first;
  };
  // Spawns, refills and preemptions of idle workers count toward the
  // first lane not yet drained.
  auto current = [&]() -> OrchestratorStats& {
    for (std::size_t l = 0; l < runs.size(); ++l)
      if (!runs[l].done) return *st[l];
    return *st.back();
  };

  std::size_t first_items = 0;
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    Run& run = runs[l];
    run.source = lanes[l].source;
    run.plan_index = drain_++;
    run.wave_opts = opts_;
    run.wave_opts.lease_items = lanes[l].lease_items;
    st[l] = lanes[l].stats ? lanes[l].stats : &run.local_stats;
    *st[l] = {};
    // Checkpoint-replayed reports (search --resume): waves already
    // drained in a previous run, owed to the final merge but never
    // re-executed.
    for (ShardReport& r : run.source->take_replayed_reports()) {
      run.reports.push_back(std::move(r));
      run.labels.emplace_back("resumed checkpoint");
    }
    first_items += next_wave(l);
  }
  if (lanes_left == 0) return results;  // nothing to lease out

  if (!spawned_) {
    // Spawn against the item count, not the lease count: a one-lease
    // wave still wants idle workers around, because work stealing can
    // split that lease across them.
    for (std::size_t i = 0; i < std::min(workers_, first_items); ++i)
      if (!spawn_one(current())) break;
    if (live_ == 0)
      throw OrchestratorError(
          "orchestrate: transport produced no workers (is the fleet "
          "connected?)");
    spawned_ = true;
  } else {
    refill(pending.size(), current());
  }

  const std::size_t depth = std::max<std::size_t>(1, transport_.lease_depth());
  // Grant the next pending lease to `slot`. A worker holding another
  // drain's plan (or the construction plan, if it joined later) switches
  // to the lease's plan first, and a worker is shipped any plan items it
  // has never seen before a lease that reaches into them — never on the
  // exhaustive path (known == the whole plan).
  auto grant = [&](std::size_t w, Slot& slot) {
    const Held& h = slot.leases.emplace_back(pending.front());
    pending.pop_front();
    const Run& run = runs[h.lane];
    const InjectionPlan& plan = run.source->plan();
    ++st[h.lane]->leases_granted;
    if (slot.plan != run.plan_index) {
      transport_.load(w, plan);
      slot.plan = run.plan_index;
      slot.known = plan.items.size();
    }
    if (slot.known < h.lease.end) {
      transport_.feedback(w, plan, slot.known, plan.items.size());
      slot.known = plan.items.size();
    }
    transport_.submit(w, h.lease);
  };

  while (lanes_left > 0) {
    if (reap_expired(pending, st)) {
      refill(pending.size(), current());
      continue;
    }

    // Keep every live worker fed before blocking for events: one lease
    // to each idle worker first; then, while more leases wait than
    // there are workers to share them, one more queued behind each busy
    // worker's in-flight lease, up to the transport's lease_depth() —
    // finishing a lease then never waits on a round trip to us. The
    // tail is dealt one lease per idle worker, so no lease sits queued
    // behind a straggler while another worker idles. Only a bare LEASE
    // line is ever queued: a lease that needs a PLAN or FEEDBACK first
    // waits until the worker is idle, so we never block writing a large
    // frame to a worker that is itself blocked writing its report to us.
    for (auto& [w, slot] : slots_) {
      if (pending.empty()) break;
      if (!slot.live || slot.busy()) continue;
      slot.last_heard = now_();
      grant(w, slot);
    }
    for (auto& [w, slot] : slots_) {
      if (pending.size() <= live_) break;
      if (!slot.live || !slot.busy() || slot.steal_pending ||
          slot.leases.size() >= depth)
        continue;
      const Held& next = pending.front();
      if (slot.plan != runs[next.lane].plan_index ||
          slot.known < next.lease.end)
        continue;
      grant(w, slot);
    }

    // Work stealing: nothing left to grant but idle workers exist, so
    // ask stragglers to yield the undrained tails of their leases — one
    // outstanding STEAL per busy worker, at most one per idle worker,
    // bounded by each lane's split budget. A worker with a lease queued
    // is no straggler: the queue is its tail.
    if (pending.empty()) {
      std::size_t idle = 0, outstanding = 0;
      for (auto& [w, slot] : slots_) {
        if (!slot.live) continue;
        if (!slot.busy()) ++idle;
        else if (slot.steal_pending) ++outstanding;
      }
      for (auto& [w, slot] : slots_) {
        if (idle <= outstanding) break;
        if (!slot.live || slot.leases.size() != 1 || slot.steal_pending)
          continue;
        const Held& h = slot.leases.front();
        if (runs[h.lane].splits_used + outstanding >= kMaxLeaseSplits)
          continue;
        if (h.lease.end - h.lease.begin < 2) continue;
        transport_.steal(w);
        slot.steal_pending = true;
        ++outstanding;
      }
    }

    std::optional<WorkerEvent> maybe = transport_.wait_any(poll_timeout());
    if (!maybe) continue;  // timed out: the top of the loop reaps
    WorkerEvent ev = std::move(*maybe);
    auto it = slots_.find(ev.worker);
    if (it == slots_.end() || !it->second.live)
      throw OrchestratorError("orchestrate: event from unknown worker " +
                              std::to_string(ev.worker));
    Slot& slot = it->second;
    slot.last_heard = now_();

    if (ev.kind == WorkerEvent::Kind::heartbeat) continue;

    if (ev.kind == WorkerEvent::Kind::lease_yielded) {
      if (!slot.busy() || !slot.steal_pending ||
          slot.leases.front().lease.seq != ev.lease.seq ||
          ev.yield_mid <= slot.leases.front().lease.begin ||
          ev.yield_mid >= slot.leases.front().lease.end)
        throw OrchestratorError(
            "orchestrate: worker " + std::to_string(ev.worker) +
            " yielded a range it was not asked to steal from");
      // The straggler keeps [begin, mid); the tail becomes a brand-new
      // lease at the front of the queue, which the feeding pass above
      // hands to an idle worker next iteration.
      Held& kept = slot.leases.front();
      Run& run = runs[kept.lane];
      pending.push_front(
          {kept.lane, {run.next_seq++, ev.yield_mid, kept.lease.end}});
      kept.lease.end = ev.yield_mid;
      slot.steal_pending = false;
      ++run.outstanding;
      ++run.splits_used;
      ++st[kept.lane]->leases_split;
      continue;
    }

    if (ev.kind == WorkerEvent::Kind::lease_done) {
      if (!slot.busy() || slot.leases.front().lease.seq != ev.lease.seq ||
          slot.leases.front().lease.begin != ev.lease.begin ||
          slot.leases.front().lease.end != ev.lease.end)
        throw OrchestratorError(
            "orchestrate: worker " + std::to_string(ev.worker) +
            " reported a lease it was not granted");
      // Light shape check here; the merge re-validates everything. A
      // report that is not the lease it claims means a broken worker,
      // and failing now names it.
      const ShardReport& r = ev.report;
      if (!r.leased || !r.complete ||
          r.assigned_ids.size() != ev.lease.end - ev.lease.begin ||
          (!r.assigned_ids.empty() &&
           (r.assigned_ids.front() != ev.lease.begin ||
            r.assigned_ids.back() + 1 != ev.lease.end)))
        throw OrchestratorError(
            "orchestrate: worker " + std::to_string(ev.worker) +
            "'s report does not match lease [" +
            std::to_string(ev.lease.begin) + ", " +
            std::to_string(ev.lease.end) + ")" +
            (ev.label.empty() ? "" : " (" + ev.label + ")"));
      const std::size_t l = slot.leases.front().lane;
      Run& run = runs[l];
      // Feedback: the source scores this wave's outcomes before it
      // generates the next wave (a no-op for the exhaustive path).
      run.source->absorb(ev.report);
      run.reports.push_back(std::move(ev.report));
      run.labels.push_back(std::move(ev.label));
      slot.leases.pop_front();
      slot.steal_pending = false;
      // Wave barrier: every lease of the lane's wave is collected and
      // absorbed; only now may its source decide the next wave, so
      // generation sees a deterministic (stable-id-ordered) view of all
      // prior outcomes regardless of lease scheduling.
      if (--run.outstanding == 0 && next_wave(l) > 0)
        refill(pending.size(), current());
      continue;
    }

    // Worker gone. Its unfinished leases (if any) go back to the queue.
    OrchestratorStats& lane =
        slot.busy() ? *st[slot.leases.front().lane] : current();
    slot.live = false;
    --live_;
    release(slot, pending, st);
    if (ev.kind == WorkerEvent::Kind::died)
      throw OrchestratorError("orchestrate: worker " +
                              std::to_string(ev.worker) + " failed (" +
                              describe_exit(ev) +
                              "); a deterministic failure would only "
                              "repeat, not re-leasing");
    if (ev.kind == WorkerEvent::Kind::exited)
      throw OrchestratorError(
          "orchestrate: worker " + std::to_string(ev.worker) +
          " exited cleanly with work outstanding — protocol violation");
    ++lane.workers_preempted;
    refill(pending.size(), current());
  }
  return results;
}

void Fleet::close(OrchestratorStats* stats) {
  OrchestratorStats local_stats;
  OrchestratorStats& st = stats ? *stats : local_stats;
  for (auto& [w, slot] : slots_)
    if (slot.live) transport_.shutdown(w);
  while (live_ > 0) {
    std::optional<WorkerEvent> maybe = transport_.wait_any(
        opts_.deadman_ms > 0 ? static_cast<long>(opts_.deadman_ms) : -1);
    if (!maybe) {
      for (auto& [w, slot] : slots_)
        if (slot.live) {
          transport_.kill(w);
          slot.live = false;
          --live_;
          ++st.deadman_expiries;
        }
      break;
    }
    const WorkerEvent& ev = *maybe;
    if (ev.kind == WorkerEvent::Kind::heartbeat) continue;
    if (ev.kind == WorkerEvent::Kind::lease_done ||
        ev.kind == WorkerEvent::Kind::lease_yielded)
      throw OrchestratorError(
          "orchestrate: worker " + std::to_string(ev.worker) +
          " reported a lease after every lease was collected");
    auto it = slots_.find(ev.worker);
    if (it != slots_.end() && it->second.live) {
      it->second.live = false;
      --live_;
    }
  }
}

}  // namespace ep::core
