// The distribution wire format (docs/WIRE_FORMAT.md): serialized
// InjectionPlans and per-shard campaign reports.
//
// The plan is the engine's unit of distribution. `epa_cli plan` writes
// InjectionPlan::to_json() to a file; any number of processes — on one
// machine or many — each read the same plan, drain only their shard's
// work items (stable id % shard_count == shard_index), and write a
// ShardReport. merge_shard_reports() recombines the shard files into the
// exact CampaignResult a single process would have produced: outcomes go
// to their plan-order slot by stable id, so the merge is deterministic
// regardless of shard count, arrival order, or how long each shard took.
//
// Everything here validates before it trusts: a malformed, truncated,
// version-skewed, or foreign file raises WireError with a message naming
// the field (and, for syntax errors, the line/column) that broke —
// callers turn that into a clean non-zero exit, never a raw terminate.
#pragma once

#include <cstddef>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/executor.hpp"

namespace ep::core {

/// Version of the shard-report wire format. Version 2 is the compact
/// columnar encoding (one array per run-dependent field instead of one
/// object per outcome) with the `complete`/`completed_ids` partial-report
/// notion; version 3 admits the `redzone-corruption` violation policy
/// with the same columnar layout. The serializer always writes the
/// current version, and the reader still accepts versions 1 (the
/// row-oriented PR 3 format) and 2. Plans are versioned separately by
/// kPlanSchemaVersion.
inline constexpr int kShardSchemaVersion = 3;

/// Version of the binary wire encoding (docs/WIRE_FORMAT.md, "Binary
/// encoding"): the compact non-JSON framing of the same plan and
/// shard-report models, carried by every PLAN plan frame and lease
/// report frame of the worker protocol.
/// Versioned independently of the JSON schema versions — the two
/// encodings carry identical information and decode to identical
/// in-memory values. Version 2 appends the `redzone-corruption` policy
/// ordinal; the layout is unchanged and version-1 frames stay decodable.
inline constexpr int kBinaryWireVersion = 2;

/// A plan or shard-report file that cannot be trusted: syntactically
/// malformed, wrong schema version, wrong kind, missing or inconsistent
/// fields, or shard sets that do not add back up to the plan.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Canonical JSON fragment helpers shared by every serializer so site and
/// violation objects look the same in plans, shard reports, and docs.
std::string json_site(const os::Site& s);
std::string json_violation(const Violation& v);

/// Parse and validate a serialized plan (the inverse of
/// InjectionPlan::to_json). Faults are re-resolved by name against this
/// build's FaultCatalog; the returned plan carries no world snapshot —
/// call refreeze_snapshot() to re-create the local COW prototype.
/// Throws WireError on any malformed or unsupported input.
InjectionPlan plan_from_json(const std::string& text);

/// Re-freeze the local COW prototype for a plan rebuilt from JSON (the
/// snapshot is never serialized — it is a per-process amortization, not
/// plan semantics). No-op when the scenario is not snapshot-safe, the
/// plan is empty, or a snapshot is already attached.
void refreeze_snapshot(InjectionPlan& plan, const Scenario& scenario);

/// The FEEDBACK payload (core/protocol.hpp): plan.items[begin, end)
/// encoded as one space-free token of comma-separated
/// `point:kind:fault:param` entries (kind is `i` or `d`, param plain
/// decimal — 0 for stock hints). The coordinator ships this to workers
/// whose serialized plan copy predates search-appended items; the worker
/// appends the parsed items under the same stable ids. Throws WireError
/// when the range is empty or does not fit the plan.
std::string feedback_spec(const InjectionPlan& plan, std::size_t begin,
                          std::size_t end);

/// The inverse: decode a FEEDBACK spec token back into work items,
/// re-resolving faults against this build's catalog. `point_count` is
/// the receiving plan's point count — entries referencing points past it
/// are rejected (a worker can only execute items whose interaction point
/// it already has). Throws WireError on any malformed entry.
std::vector<WorkItem> parse_feedback_spec(const std::string& spec,
                                          std::size_t point_count);

/// The stable work-item ids shard `shard_index` (0-based) owns out of
/// `shard_count`: { id | id % shard_count == shard_index }, ascending.
/// Uneven divisions simply give the low-index shards one extra item.
std::vector<std::size_t> shard_item_ids(std::size_t total_items,
                                        std::size_t shard_index,
                                        std::size_t shard_count);

/// One shard's campaign output: the injection outcomes of the work items
/// the shard owns, keyed by their stable plan ids. Ownership comes in two
/// flavors: the static modulo partition (`id % shard_count ==
/// shard_index`, PR 3's `run-shard --shard K/N`) and an explicit
/// *lease* (`leased == true`): the orchestrator hands a worker an
/// arbitrary id set, recorded verbatim in `assigned_ids`. A report may be
/// *partial* (`complete == false`): a preempted `run-shard` flushes the
/// outcomes it finished, and resume_shard() later drains only the missing
/// ids — the completed report is byte-identical to an uninterrupted run.
struct ShardReport {
  int schema_version = kShardSchemaVersion;
  std::string scenario_name;
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  /// Total items in the *whole* plan (not this shard) — merge uses it to
  /// reject shard files produced against a different plan.
  std::size_t plan_items = 0;
  /// Lease-based ownership: when true, this report owns exactly
  /// `assigned_ids` (ascending, unique, each < plan_items) and the
  /// modulo partition does not apply — shard_index/shard_count are fixed
  /// at 0/1 so a lease report cannot masquerade as a modulo shard. The
  /// field is an *optional* addition to schema_version 2: files without
  /// it keep the modulo meaning byte for byte.
  bool leased = false;
  std::vector<std::size_t> assigned_ids;
  /// True iff item_ids covers every id the shard owns. Derived, never
  /// free-floating: the serializer computes it and the parser rejects a
  /// file whose flag contradicts its completed_ids.
  bool complete = true;
  std::vector<std::size_t> item_ids;  // ascending; parallel to outcomes
  std::vector<InjectionOutcome> outcomes;

  /// Canonical JSON (docs/WIRE_FORMAT.md), always schema_version 2:
  /// parse -> re-serialize reproduces the bytes verbatim. Only the
  /// run-dependent outcome fields go on the wire (fired, crashed,
  /// overflows, exit_code, violations, exploit) — site/call/object/fault
  /// are already in the plan, keyed by id, and merge re-derives them.
  [[nodiscard]] std::string to_json() const;
};

/// Parse and validate a serialized shard report (version 2, or the
/// row-oriented version 1). Throws WireError on malformed input, a
/// foreign kind/version, ids outside the plan, ids that belong to a
/// different shard, duplicate or out-of-order ids, or a `complete` flag
/// that contradicts the ids actually present.
ShardReport shard_report_from_json(const std::string& text);

/// True when `data` starts with the binary wire magic — how file loaders
/// (epa_cli's load_plan) dispatch between the JSON and binary decoders
/// without trying one and falling back.
bool looks_like_binary_wire(const void* data, std::size_t size);
bool looks_like_binary_wire(const std::string& text);

/// The binary encodings (docs/WIRE_FORMAT.md, "Binary encoding"): a
/// sectioned little-framing with explicit endianness, total size, and a
/// validated section table. Canonical like the JSON side: decode ->
/// re-encode reproduces the bytes verbatim, and the decoders enforce
/// every invariant the JSON parsers do (same error messages where the
/// check is shared). Throws WireError on any malformed, truncated,
/// foreign-endian, or version-skewed input.
std::string plan_to_binary(const InjectionPlan& plan);
InjectionPlan plan_from_binary(const void* data, std::size_t size);
InjectionPlan plan_from_binary(const std::string& text);
std::string shard_report_to_binary(const ShardReport& report);
ShardReport shard_report_from_binary(const void* data, std::size_t size);
ShardReport shard_report_from_binary(const std::string& text);

/// Progress hooks for a preemptible shard drain. With checkpoint_every ==
/// 0 the drain is one uninterruptible pass and no intermediate flush
/// happens; with K > 0 the drain proceeds in ascending chunks of K items,
/// flushing the partial report after each chunk and polling `interrupted`
/// between chunks — a preempted drain returns a valid partial report
/// (complete == false) instead of losing the shard.
struct ShardDrainHooks {
  std::size_t checkpoint_every = 0;
  /// Called with the partial report after each completed chunk (not after
  /// the final one — the caller writes the returned report itself).
  std::function<void(const ShardReport&)> on_checkpoint;
  /// Polled before each chunk; returning true stops the drain early.
  std::function<bool()> interrupted;
};

/// Drain one shard of the plan through the executor (worker pool and COW
/// snapshot path included) and package the outcomes as a ShardReport.
ShardReport run_shard(const Executor& executor, const InjectionPlan& plan,
                      std::size_t shard_index, std::size_t shard_count,
                      const ExecutorOptions& opts = {},
                      const ShardDrainHooks& hooks = {});

/// Drain one dynamic lease — the id range [begin, end) — and package the
/// outcomes as a *leased* ShardReport (`assigned_ids` = the range). This
/// is the persistent-worker drain (core/orchestrator.hpp): one process
/// parses the plan and re-freezes the prototype once, then serves any
/// number of leases through this. Throws WireError when the range does
/// not fit the plan. `hooks` makes the drain preemptible mid-lease the
/// same way run_shard's is: with checkpoint_every > 0 a partial leased
/// report (complete == false) is flushed after each chunk and the drain
/// stops between chunks when `interrupted` fires.
ShardReport run_lease(const Executor& executor, const InjectionPlan& plan,
                      std::size_t begin, std::size_t end,
                      const ExecutorOptions& opts = {},
                      const ShardDrainHooks& hooks = {});

/// Complete a partial report: re-drain only the ids the shard owns but
/// `partial` lacks, and return the combined report — byte-identical to an
/// uninterrupted run_shard (outcomes are deterministic per item). Throws
/// WireError when the partial report does not belong to this plan
/// (scenario or item-count mismatch, ids outside the shard). A resumed
/// drain can itself be preempted again via `hooks`.
ShardReport resume_shard(const Executor& executor, const InjectionPlan& plan,
                         const ShardReport& partial,
                         const ExecutorOptions& opts = {},
                         const ShardDrainHooks& hooks = {});

/// Recombine shard reports into the CampaignResult a single process would
/// have produced from this plan: outcome with id i lands in slot i, so
/// the result is bit-identical to a local `--jobs N` drain for any shard
/// count and any shard file order. Two partition styles merge: a modulo
/// shard set (all shard_count shards present exactly once) or a lease
/// set (every report leased, `assigned_ids` disjoint and together
/// covering the plan — any disjoint id-partition works; the two styles
/// never mix in one merge). Throws WireError unless the set is complete
/// and consistent: every report matching this plan's scenario and item
/// count, and the union of outcome ids covering every work item exactly
/// once — any mix of v1, v2, and resumed reports merges, but genuinely
/// missing outcomes (an unresumed partial file) are still rejected.
/// `labels`, when given, is parallel to `shards` and names each report's
/// source (its file path on the CLI) in every diagnostic, so a failing
/// 7-shard merge is attributable to the offending file.
CampaignResult merge_shard_reports(const InjectionPlan& plan,
                                   const std::vector<ShardReport>& shards,
                                   const std::vector<std::string>& labels = {});

}  // namespace ep::core
