// Coverage-guided environment search: the open-ended WorkSource.
//
// The exhaustive pipeline drains every (site, fault) pair once. Search
// inverts the economics: given a *budget* of injection runs (usually a
// small fraction of the exhaustive item count), spend each run where it
// is most likely to teach something new. SearchWorkSource generates work
// items wave by wave from a candidate frontier — every trace point
// crossed with its planned faults, plus perturbation-parameter mutations
// of items whose outcomes proved interesting — and a NoveltyScorer ranks
// the frontier by what the campaign has *not* yet observed: environment
// classes never fired, sites never violated, faults never attempted,
// verdict shapes never seen. This is the paper's adequacy argument run
// in reverse: instead of measuring class coverage after an exhaustive
// sweep, the scheduler chases it during the sweep.
//
// Determinism contract (the same one the rest of the engine keeps):
// the generated item stream is a pure function of (seed, budget, batch,
// the base plan, absorbed outcomes in stable-id order). Outcomes are
// themselves pure functions of (point, fault, param), so the same seed
// and budget produce a byte-identical search report for any worker
// count, job count, or data plane — and a checkpointed search resumed
// after a kill -9 re-generates the exact waves it lost.
//
// Layering: core must not depend on vulndb, so the environment-class
// axis arrives as SearchOptions::classify — a (fault kind, fault name)
// -> class-label function the CLI wires to vulndb::coverage_class. An
// empty classify (or an empty label) simply mutes that scoring term.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/wire.hpp"
#include "core/work_source.hpp"

namespace ep::core {

struct SearchOptions {
  /// Seed of the whole search: wave selection ties, parameter mutation.
  std::uint64_t seed = 1;
  /// Total work items the search may generate (the run count). The
  /// search stops early when the frontier is exhausted first.
  std::size_t budget = 0;
  /// Wave size cap: how many items are generated per wave barrier. The
  /// feedback loop turns once per wave, so smaller batches steer harder
  /// and larger batches parallelize better.
  std::size_t batch = 16;
  /// Environment-class axis for novelty scoring: (fault kind, fault
  /// name) -> class label, empty label = unclassified. The CLI passes
  /// vulndb::coverage_class; unset mutes the class term.
  std::function<std::string(FaultKind, const std::string&)> classify;
};

/// What the search has observed so far, and how novel a candidate looks
/// against it. Shared across scenarios in a family search (one scorer,
/// sequential members) so a class fired by member one stops paying rent
/// in member two.
class NoveltyScorer {
 public:
  /// Score a candidate item against the seen sets. Terms, largest first:
  /// +8 its environment class never fired, +2 its site never violated,
  /// +1 its fault never attempted, +1 it is a stock-hints item
  /// (param == 0 — base candidates before mutations of equal novelty).
  [[nodiscard]] int score(const std::string& class_label,
                          const std::string& site_tag,
                          const std::string& fault_key,
                          std::uint64_t param) const;

  void note_attempt(const std::string& fault_key);
  /// Absorb one finished outcome. Returns true when the outcome's
  /// verdict signature (fault, fired, violated, crashed, exit code) was
  /// never seen before — the generator's cue to enqueue mutations.
  bool note_outcome(const std::string& class_label,
                    const std::string& site_tag,
                    const std::string& fault_key,
                    const InjectionOutcome& outcome);

  [[nodiscard]] const std::set<std::string>& fired_classes() const {
    return fired_classes_;
  }

 private:
  friend class SearchWorkSource;  // wave-tentative copies for diversity
  std::set<std::string> fired_classes_;
  std::set<std::string> violated_sites_;
  std::set<std::string> attempted_faults_;
  std::set<std::string> verdict_sigs_;
};

/// One parsed search-state work item (docs/SEARCH.md, the `search-state`
/// wire kind): enough to validate a resumed search's re-generated stream
/// against what the checkpoint recorded, without resolving faults.
struct SearchStateItem {
  std::size_t point = 0;
  std::string site;
  FaultKind kind = FaultKind::direct;
  std::string fault;
  std::uint64_t param = 0;
};

/// A parsed search-state checkpoint: the search's identity (scenario,
/// seed, budget, batch), every item generated so far with wave
/// boundaries, and the columnar outcomes of every completed item.
struct SearchState {
  int schema_version = 1;
  std::string scenario_name;
  std::uint64_t seed = 1;
  std::size_t budget = 0;
  std::size_t batch = 0;
  std::vector<SearchStateItem> items;
  std::vector<std::size_t> wave_ends;
  std::vector<std::size_t> completed_ids;  // ascending, parallel outcomes
  std::vector<InjectionOutcome> outcomes;
};

/// Canonical JSON for a search-state document: parse -> re-serialize
/// reproduces the bytes verbatim (the SearchDoc test holds docs/SEARCH.md
/// to the format). schema_version 1, kind "search-state".
std::string search_state_to_json(const SearchState& state);

/// Parse and validate a search-state document. Throws WireError on
/// malformed input, a foreign kind/version, out-of-range points or wave
/// boundaries, or completed ids that are unordered or out of range.
SearchState search_state_from_json(const std::string& text);

/// The open-ended WorkSource: novelty-ranked waves over the candidate
/// frontier. Construct from the *exhaustive* plan of the same scenario
/// and options (the base plan's items are the initial frontier, its
/// points/snapshot carry over), optionally sharing a scorer across a
/// family; then drain through run_search() or Fleet::drain().
class SearchWorkSource : public WorkSource {
 public:
  /// `base` is the scenario's exhaustive plan (every candidate, param
  /// 0). A non-null `shared_scorer` must outlive the source and makes a
  /// family search cumulative; null means the source owns its scorer.
  SearchWorkSource(InjectionPlan base, SearchOptions opts,
                   NoveltyScorer* shared_scorer = nullptr);

  [[nodiscard]] const InjectionPlan& plan() const override { return plan_; }
  std::pair<std::size_t, std::size_t> next_wave() override;
  void absorb(const ShardReport& report) override;
  std::vector<ShardReport> take_replayed_reports() override;

  /// Invoked at every wave barrier (including the final, empty one) with
  /// the full current state — the caller persists it (atomically) so a
  /// killed search can resume. Set *after* resume(): replayed waves do
  /// not re-checkpoint.
  void set_checkpoint(std::function<void(const SearchState&)> fn) {
    checkpoint_ = std::move(fn);
  }

  /// Process any pending feedback and checkpoint now — the clean-stop
  /// path (--stop-after), which ends a search between barriers without
  /// losing the last drained wave.
  void checkpoint_now();

  /// Replay a checkpoint: re-generate each fully-completed recorded wave
  /// (feeding the recorded outcomes back through the scorer), validate
  /// the re-generated items match the recording byte for byte, and queue
  /// synthesized lease reports for take_replayed_reports(). Call once,
  /// directly after construction. Throws WireError when the state
  /// belongs to a different search (scenario/seed/budget/batch) or the
  /// regeneration diverges from the recorded items.
  void resume(const SearchState& state);

  /// The current state (what a checkpoint would record).
  [[nodiscard]] SearchState state() const;

  [[nodiscard]] std::size_t waves_generated() const {
    return wave_ends_.size();
  }

 private:
  struct Candidate {
    WorkItem item;
    std::size_t seq = 0;  // insertion order: the deterministic tiebreak
    bool queued = false;
  };

  void process_feedback();
  std::pair<std::size_t, std::size_t> generate_wave();
  [[nodiscard]] std::string fault_key(const WorkItem& item) const;
  [[nodiscard]] std::string class_of(const WorkItem& item) const;

  InjectionPlan plan_;  // grows; items [0, n) are the generated stream
  SearchOptions opts_;
  NoveltyScorer own_scorer_;
  NoveltyScorer* scorer_;
  std::vector<Candidate> frontier_;
  std::size_t next_seq_ = 0;
  std::vector<std::size_t> wave_ends_;
  /// Outcomes landed since the last barrier, keyed by stable id; merged
  /// into outcomes_ (and the scorer) in id order at the barrier.
  std::map<std::size_t, InjectionOutcome> pending_;
  std::map<std::size_t, InjectionOutcome> outcomes_;
  std::vector<ShardReport> replayed_;
  std::function<void(const SearchState&)> checkpoint_;
};

/// The local (in-process) search drive, mirroring what
/// Fleet::drain() does across a worker fleet: loop next_wave ->
/// run_lease -> absorb until the source is exhausted or
/// `stop_after_waves` barriers have passed, then merge every wave's
/// lease report — replayed checkpoint waves included — into the
/// CampaignResult. `stopped` is true when the wave cap ended the search
/// early; the merged result is only assembled on a completed search.
struct SearchRunResult {
  CampaignResult result;
  std::size_t waves = 0;
  bool stopped = false;
};

SearchRunResult run_search(const Executor& executor, SearchWorkSource& source,
                           const ExecutorOptions& opts = {},
                           std::size_t stop_after_waves = 0);

}  // namespace ep::core
