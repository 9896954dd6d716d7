#include "core/wire.hpp"

#include <algorithm>
#include <climits>
#include <set>
#include <utility>

#include "core/catalog.hpp"
#include "core/snapshot.hpp"
#include "core/wire_internal.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace ep::core {

std::string json_site(const os::Site& s) {
  return "{\"unit\": " + json_quote(s.unit) +
         ", \"line\": " + std::to_string(s.line) +
         ", \"tag\": " + json_quote(s.tag) + "}";
}

std::string json_violation(const Violation& v) {
  return "{\"policy\": " + json_quote(std::string(to_string(v.policy))) +
         ", \"site\": " + json_site(v.site) +
         ", \"call\": " + json_quote(v.call) +
         ", \"object\": " + json_quote(v.object) +
         ", \"detail\": " + json_quote(v.detail) + "}";
}

namespace wire_detail {

FaultRef parse_fault(FaultKind kind, const std::string& name) {
  const FaultCatalog& cat = FaultCatalog::standard();
  FaultRef r;
  r.kind = kind;
  if (kind == FaultKind::indirect) {
    r.indirect = cat.find_indirect(name);
    if (!r.indirect)
      throw WireError("unknown indirect fault '" + name +
                      "' (plan written by a build with a different fault "
                      "catalog?)");
  } else {
    r.direct = cat.find_direct(name);
    if (!r.direct)
      throw WireError("unknown direct fault '" + name +
                      "' (plan written by a build with a different fault "
                      "catalog?)");
  }
  return r;
}

std::size_t owned_id_count(std::size_t total_items, std::size_t shard_index,
                           std::size_t shard_count) {
  return total_items > shard_index
             ? (total_items - shard_index - 1) / shard_count + 1
             : 0;
}

void check_completed_id(const ShardReport& report, long long id,
                        bool require_ascending) {
  if (id < 0 || id >= static_cast<long long>(report.plan_items))
    throw WireError("work-item id " + std::to_string(id) +
                    " out of range (plan has " +
                    std::to_string(report.plan_items) + " items)");
  auto uid = static_cast<std::size_t>(id);
  if (report.leased) {
    if (!std::binary_search(report.assigned_ids.begin(),
                            report.assigned_ids.end(), uid))
      throw WireError("work-item id " + std::to_string(id) +
                      " is not in this report's assigned_ids lease");
  } else if (uid % report.shard_count != report.shard_index) {
    throw WireError("work-item id " + std::to_string(id) +
                    " belongs to shard " +
                    std::to_string(uid % report.shard_count + 1) + "/" +
                    std::to_string(report.shard_count) + ", not shard " +
                    std::to_string(report.shard_index + 1) + "/" +
                    std::to_string(report.shard_count));
  }
  if (!report.item_ids.empty()) {
    std::size_t prev = report.item_ids.back();
    if (uid == prev)
      throw WireError("duplicate outcome for work item " +
                      std::to_string(id));
    if (require_ascending && uid < prev)
      throw WireError("completed_ids out of order (" + std::to_string(id) +
                      " after " + std::to_string(prev) + ")");
  }
}

void validate_complete_flag(ShardReport& report, bool flag_on_wire) {
  std::size_t owned = report.leased
                          ? report.assigned_ids.size()
                          : owned_id_count(report.plan_items,
                                           report.shard_index,
                                           report.shard_count);
  bool covered = report.item_ids.size() == owned;
  if (flag_on_wire && report.complete != covered)
    throw WireError(
        std::string("shard report: ") +
        (report.complete
             ? "'complete' is true but completed_ids covers " +
                   std::to_string(report.item_ids.size()) + " of the " +
                   std::to_string(owned) + " ids this shard owns"
             : "'complete' is false but completed_ids covers every id "
               "this shard owns"));
  report.complete = covered;
}

}  // namespace wire_detail

namespace {

/// Run `f`, prefixing any failure — JSON access or wire validation —
/// with where in the document it happened, so "missing key 'call'"
/// becomes "plan: points[3]: missing key 'call'" and "unknown direct
/// fault 'x'" names the item that referenced it. Use one level deep —
/// nesting would stack prefixes.
template <typename F>
auto with_ctx(const std::string& where, F&& f) -> decltype(f()) {
  try {
    return f();
  } catch (const std::exception& e) {
    throw WireError(where + ": " + e.what());
  }
}

[[noreturn]] void fail(const std::string& where, const std::string& msg) {
  throw WireError(where + ": " + msg);
}

JsonValue parse_document(const std::string& text, const char* what) {
  try {
    return json_parse(text);
  } catch (const JsonError& e) {
    throw WireError(std::string(what) + " is not valid JSON: " + e.what());
  }
}

/// Shared header validation: wire files self-describe with
/// schema_version + kind so a plan handed to merge (or vice versa) fails
/// with "kind 'injection-plan' where 'shard-report' was expected", not a
/// missing-field puzzle. Each kind carries its own supported version
/// range (plans: 1 through kPlanSchemaVersion; shard reports: 1 through
/// kShardSchemaVersion); the accepted version is returned so the caller
/// can pick the matching body parser.
int check_header(const JsonValue& doc, const char* expected_kind,
                 const char* what, int min_version, int max_version) {
  if (!doc.is_object())
    fail(what, "top-level value must be an object");
  const JsonValue* ver = doc.find("schema_version");
  if (!ver)
    fail(what, "missing 'schema_version' (not a wire-format file?)");
  // Kind before version: each kind has its own version range now, and a
  // plan handed to merge should say "wrong kind", not "wrong version".
  std::string kind = with_ctx(std::string(what) + ": kind",
                              [&] { return doc.at("kind").as_string(); });
  if (kind != expected_kind)
    fail(what, "kind '" + kind + "' where '" + expected_kind +
                   "' was expected");
  long long v = with_ctx(std::string(what) + ": schema_version",
                         [&] { return ver->as_int(); });
  if (v < min_version || v > max_version) {
    std::string supported =
        min_version == max_version
            ? "version " + std::to_string(min_version)
            : "versions " + std::to_string(min_version) + " through " +
                  std::to_string(max_version);
    fail(what, "unsupported schema_version " + std::to_string(v) +
                   " (this build reads " + supported + ")");
  }
  return static_cast<int>(v);
}

FaultKind fault_kind_from(const std::string& s) {
  for (FaultKind k : {FaultKind::indirect, FaultKind::direct})
    if (to_string(k) == s) return k;
  throw WireError("unknown fault kind '" + s + "'");
}

ObjectKind object_kind_from(const std::string& s) {
  for (ObjectKind k :
       {ObjectKind::file, ObjectKind::directory, ObjectKind::exec_binary,
        ObjectKind::net_inbound, ObjectKind::net_service,
        ObjectKind::ipc_service, ObjectKind::registry_key,
        ObjectKind::user_input, ObjectKind::env_var, ObjectKind::none})
    if (to_string(k) == s) return k;
  throw WireError("unknown object kind '" + s + "'");
}

InputSemantic semantic_from(const std::string& s) {
  for (InputSemantic k :
       {InputSemantic::file_name, InputSemantic::command,
        InputSemantic::path_list, InputSemantic::permission_mask,
        InputSemantic::file_extension, InputSemantic::ip_address,
        InputSemantic::packet, InputSemantic::host_name,
        InputSemantic::dns_reply, InputSemantic::ipc_message})
    if (to_string(k) == s) return k;
  throw WireError("unknown input semantic '" + s + "'");
}

Policy policy_from(const std::string& s) {
  for (Policy p : {Policy::integrity, Policy::confidentiality,
                   Policy::untrusted_exec, Policy::memory_safety,
                   Policy::trust, Policy::authorization,
                   Policy::redzone_corruption})
    if (to_string(p) == s) return p;
  throw WireError("unknown policy '" + s + "'");
}

/// An int-typed wire value: silently wrapping a long long would break
/// both validation ("reject what you cannot represent") and the
/// parse -> re-serialize byte-identity contract.
int parse_int32_value(const JsonValue& v, const std::string& what) {
  long long n = v.as_int();
  if (n < INT_MIN || n > INT_MAX)
    throw WireError(what + " " + std::to_string(n) +
                    " does not fit a 32-bit int");
  return static_cast<int>(n);
}

int parse_int32(const JsonValue& v, const char* key) {
  return parse_int32_value(v.at(key), key);
}

os::Site parse_site(const JsonValue& v) {
  os::Site s;
  s.unit = v.at("unit").as_string();
  s.line = parse_int32(v, "line");
  s.tag = v.at("tag").as_string();
  return s;
}

Violation parse_violation(const JsonValue& v) {
  Violation out;
  out.policy = policy_from(v.at("policy").as_string());
  out.site = parse_site(v.at("site"));
  out.call = v.at("call").as_string();
  out.object = v.at("object").as_string();
  out.detail = v.at("detail").as_string();
  return out;
}

/// The exploit object, shared by the v1 and v2 encodings.
std::string json_exploit(const Exploitability& e) {
  return std::string("{\"nonroot_feasible\": ") +
         (e.nonroot_feasible ? "true" : "false") +
         ", \"actor\": " + json_quote(e.actor) +
         ", \"note\": " + json_quote(e.note) + "}";
}

/// A version-1 (row-oriented) outcome object — read path only; the
/// serializer writes the columnar version-2 encoding.
InjectionOutcome parse_outcome(const JsonValue& v) {
  InjectionOutcome o;
  o.site = parse_site(v.at("site"));
  o.call = v.at("call").as_string();
  o.object = v.at("object").as_string();
  o.kind = fault_kind_from(v.at("kind").as_string());
  o.fault_name = v.at("fault").as_string();
  o.fault_description = v.at("fault_description").as_string();
  o.fired = v.at("fired").as_bool();
  o.violated = v.at("violated").as_bool();
  o.crashed = v.at("crashed").as_bool();
  o.overflows = parse_int32(v, "overflows");
  o.exit_code = parse_int32(v, "exit_code");
  for (const JsonValue& viol : v.at("violations").items())
    o.violations.push_back(parse_violation(viol));
  // v1 carried `violated` as its own field, but the serializer always
  // kept it equal to "violations is non-empty" — and the v2 encoding
  // derives it, so a disagreeing file could not re-serialize
  // canonically. Reject it here the way the v2 parser rejects a
  // mismatched exploit null.
  if (o.violated != !o.violations.empty())
    throw WireError(std::string("'violated' is ") +
                    (o.violated ? "true" : "false") +
                    " but 'violations' is " +
                    (o.violations.empty() ? "empty" : "non-empty"));
  const JsonValue& e = v.at("exploit");
  o.exploit.nonroot_feasible = e.at("nonroot_feasible").as_bool();
  o.exploit.actor = e.at("actor").as_string();
  o.exploit.note = e.at("note").as_string();
  return o;
}

std::size_t parse_count(const JsonValue& doc, const char* key,
                        const char* what) {
  long long v = with_ctx(std::string(what) + ": " + key,
                         [&] { return doc.at(key).as_int(); });
  if (v < 0) fail(what, std::string(key) + " must be >= 0");
  return static_cast<std::size_t>(v);
}

/// The shared shard-report header fields (both schema versions).
ShardReport parse_shard_header(const JsonValue& doc, int version) {
  ShardReport report;
  report.schema_version = version;
  report.scenario_name = with_ctx(
      "shard report: scenario", [&] { return doc.at("scenario").as_string(); });
  if (report.scenario_name.empty())
    fail("shard report", "scenario name is empty");
  report.shard_index = parse_count(doc, "shard_index", "shard report");
  report.shard_count = parse_count(doc, "shard_count", "shard report");
  report.plan_items = parse_count(doc, "plan_items", "shard report");
  if (report.shard_count == 0)
    fail("shard report", "shard_count must be >= 1");
  if (report.shard_index >= report.shard_count)
    fail("shard report",
         "shard_index " + std::to_string(report.shard_index) +
             " out of range for shard_count " +
             std::to_string(report.shard_count));
  return report;
}

/// The optional `assigned_ids` lease (schema_version 2 only). Absent =
/// the modulo partition, byte for byte as before; present = ownership is
/// exactly this ascending, unique, in-range id list, and the modulo
/// fields must be the fixed 0/1 so the two styles cannot contradict.
void parse_assigned_ids(const JsonValue& doc, ShardReport& report) {
  const JsonValue* lease = doc.find("assigned_ids");
  if (!lease) return;
  report.leased = true;
  if (report.shard_index != 0 || report.shard_count != 1)
    fail("shard report",
         "a leased report (assigned_ids) must carry shard_index 0 and "
         "shard_count 1, not shard " +
             std::to_string(report.shard_index + 1) + "/" +
             std::to_string(report.shard_count));
  const auto& ids =
      with_ctx("shard report: assigned_ids",
               [&]() -> decltype(auto) { return lease->items(); });
  for (std::size_t i = 0; i < ids.size(); ++i) {
    with_ctx("shard report: assigned_ids[" + std::to_string(i) + "]", [&] {
      long long id = ids[i].as_int();
      if (id < 0 || id >= static_cast<long long>(report.plan_items))
        throw WireError("work-item id " + std::to_string(id) +
                        " out of range (plan has " +
                        std::to_string(report.plan_items) + " items)");
      auto uid = static_cast<std::size_t>(id);
      if (!report.assigned_ids.empty()) {
        std::size_t prev = report.assigned_ids.back();
        if (uid == prev)
          throw WireError("duplicate assigned id " + std::to_string(id));
        if (uid < prev)
          throw WireError("assigned_ids out of order (" + std::to_string(id) +
                          " after " + std::to_string(prev) + ")");
      }
      report.assigned_ids.push_back(uid);
    });
  }
}

/// Version 1: one object per outcome, every field on the wire. Duplicate
/// ids were rejected but ordering was not canonical, and the format
/// predates partial reports — completeness is inferred from coverage.
void parse_shard_outcomes_v1(const JsonValue& doc, ShardReport& report) {
  const auto& outcomes =
      with_ctx("shard report: outcomes", [&]() -> decltype(auto) {
        return doc.at("outcomes").items();
      });
  // A set, not a plan_items-sized bitmap: plan_items is untrusted input
  // and must not size an allocation.
  std::set<std::size_t> seen;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    with_ctx("shard report: outcomes[" + std::to_string(i) + "]", [&] {
      const JsonValue& o = outcomes[i];
      long long id = o.at("id").as_int();
      wire_detail::check_completed_id(report, id,
                                      /*require_ascending=*/false);
      auto uid = static_cast<std::size_t>(id);
      if (!seen.insert(uid).second)
        throw WireError("duplicate outcome for work item " +
                        std::to_string(id));
      report.item_ids.push_back(uid);
      report.outcomes.push_back(parse_outcome(o));
    });
  }
  // v1 never promised an ordering; the in-memory report (and its v2
  // re-serialization, whose completed_ids must ascend) does. Sort the
  // pairs by id — ids are already unique.
  std::vector<std::size_t> order(report.item_ids.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return report.item_ids[a] < report.item_ids[b];
  });
  std::vector<std::size_t> sorted_ids;
  std::vector<InjectionOutcome> sorted_outcomes;
  sorted_ids.reserve(order.size());
  sorted_outcomes.reserve(order.size());
  for (std::size_t i : order) {
    sorted_ids.push_back(report.item_ids[i]);
    sorted_outcomes.push_back(std::move(report.outcomes[i]));
  }
  report.item_ids = std::move(sorted_ids);
  report.outcomes = std::move(sorted_outcomes);
}

/// Version 2: `completed_ids` plus one column array per run-dependent
/// field. The plan-derivable fields (site, call, object, fault, ...) are
/// not on the wire — merge_shard_reports re-derives them by id.
void parse_shard_outcomes_v2(const JsonValue& doc, ShardReport& report) {
  const auto& ids =
      with_ctx("shard report: completed_ids", [&]() -> decltype(auto) {
        return doc.at("completed_ids").items();
      });
  for (std::size_t i = 0; i < ids.size(); ++i) {
    with_ctx("shard report: completed_ids[" + std::to_string(i) + "]", [&] {
      long long id = ids[i].as_int();
      wire_detail::check_completed_id(report, id,
                                      /*require_ascending=*/true);
      report.item_ids.push_back(static_cast<std::size_t>(id));
    });
  }

  const JsonValue& cols = with_ctx(
      "shard report: outcomes",
      [&]() -> decltype(auto) { return doc.at("outcomes"); });
  if (!cols.is_object())
    fail("shard report",
         "outcomes must be an object of column arrays (schema_version 2)");
  report.outcomes = wire_detail::outcomes_from_columns(
      cols, report.item_ids.size(), "shard report");
}

}  // namespace

namespace wire_detail {

std::string outcome_columns_json(const std::vector<InjectionOutcome>& outcomes,
                                 const std::string& indent) {
  std::string out;
  const std::size_t n = outcomes.size();
  auto col = [&](const char* name, auto cell, bool last = false) {
    out += indent + "\"" + std::string(name) + "\": [";
    for (std::size_t i = 0; i < n; ++i)
      out += (i ? ", " : "") + cell(outcomes[i]);
    out += last ? "]\n" : "],\n";
  };
  col("fired", [](const InjectionOutcome& o) {
    return std::string(o.fired ? "true" : "false");
  });
  col("crashed", [](const InjectionOutcome& o) {
    return std::string(o.crashed ? "true" : "false");
  });
  col("overflows",
      [](const InjectionOutcome& o) { return std::to_string(o.overflows); });
  col("exit_code",
      [](const InjectionOutcome& o) { return std::to_string(o.exit_code); });
  col("violations", [](const InjectionOutcome& o) {
    std::string cell = "[";
    for (std::size_t v = 0; v < o.violations.size(); ++v)
      cell += std::string(v ? ", " : "") + json_violation(o.violations[v]);
    return cell + "]";
  });
  col("exploit",
      [](const InjectionOutcome& o) {
        return o.violated ? json_exploit(o.exploit) : std::string("null");
      },
      /*last=*/true);
  return out;
}

std::vector<InjectionOutcome> outcomes_from_columns(const JsonValue& cols,
                                                    std::size_t n,
                                                    const std::string& ctx) {
  auto column = [&](const char* name) -> const std::vector<JsonValue>& {
    const auto& items =
        with_ctx(ctx + ": outcomes." + std::string(name),
                 [&]() -> decltype(auto) { return cols.at(name).items(); });
    if (items.size() != n)
      fail(ctx, "outcomes." + std::string(name) + " has " +
                    std::to_string(items.size()) + " entries for " +
                    std::to_string(n) + " completed ids");
    return items;
  };
  const auto& fired = column("fired");
  const auto& crashed = column("crashed");
  const auto& overflows = column("overflows");
  const auto& exit_code = column("exit_code");
  const auto& violations = column("violations");
  const auto& exploit = column("exploit");

  std::vector<InjectionOutcome> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::string where = ctx + ": outcomes[" + std::to_string(i) + "]";
    with_ctx(where, [&] {
      InjectionOutcome o;
      o.fired = fired[i].as_bool();
      o.crashed = crashed[i].as_bool();
      o.overflows = parse_int32_value(overflows[i], "overflows");
      o.exit_code = parse_int32_value(exit_code[i], "exit_code");
      for (const JsonValue& viol : violations[i].items())
        o.violations.push_back(parse_violation(viol));
      o.violated = !o.violations.empty();
      // Canonical form: the exploit analysis exists exactly for violated
      // outcomes, so null-vs-object must agree with the violations column
      // or parse -> re-serialize would not reproduce the bytes.
      if (exploit[i].is_null()) {
        if (o.violated)
          throw WireError("exploit is null for a violated outcome");
      } else {
        if (!o.violated)
          throw WireError("exploit present for an outcome with no "
                          "violations");
        const JsonValue& e = exploit[i];
        o.exploit.nonroot_feasible = e.at("nonroot_feasible").as_bool();
        o.exploit.actor = e.at("actor").as_string();
        o.exploit.note = e.at("note").as_string();
      }
      out.push_back(std::move(o));
    });
  }
  return out;
}

}  // namespace wire_detail

InjectionPlan plan_from_json(const std::string& text) {
  JsonValue doc = parse_document(text, "plan");
  // Version 1 files (pre-redzone) are identical in layout; the bump only
  // admits the policy name a v1 reader would reject.
  check_header(doc, "injection-plan", "plan", 1, kPlanSchemaVersion);

  InjectionPlan plan;
  plan.scenario_name =
      with_ctx("plan: scenario", [&] { return doc.at("scenario").as_string(); });
  if (plan.scenario_name.empty()) fail("plan", "scenario name is empty");

  const auto& points = with_ctx("plan: points", [&]() -> decltype(auto) {
    return doc.at("points").items();
  });
  for (std::size_t i = 0; i < points.size(); ++i) {
    with_ctx("plan: points[" + std::to_string(i) + "]", [&] {
      const JsonValue& p = points[i];
      InteractionPoint point;
      point.site = parse_site(p.at("site"));
      point.call = p.at("call").as_string();
      point.object = p.at("object").as_string();
      point.kind = object_kind_from(p.at("kind").as_string());
      point.semantic = semantic_from(p.at("semantic").as_string());
      point.channel_kind = p.at("channel").as_string();
      point.has_input = p.at("has_input").as_bool();
      point.hits = parse_int32(p, "hits");
      plan.points.push_back(std::move(point));
    });
  }

  const auto& benign =
      with_ctx("plan: benign_violations", [&]() -> decltype(auto) {
        return doc.at("benign_violations").items();
      });
  for (std::size_t i = 0; i < benign.size(); ++i) {
    with_ctx("plan: benign_violations[" + std::to_string(i) + "]",
             [&] { plan.benign_violations.push_back(parse_violation(benign[i])); });
  }

  const auto& perturbed =
      with_ctx("plan: perturbed_sites", [&]() -> decltype(auto) {
        return doc.at("perturbed_sites").items();
      });
  for (std::size_t i = 0; i < perturbed.size(); ++i) {
    with_ctx("plan: perturbed_sites[" + std::to_string(i) + "]", [&] {
      plan.perturbed_site_tags.insert(perturbed[i].as_string());
    });
  }

  const auto& items = with_ctx("plan: items", [&]() -> decltype(auto) {
    return doc.at("items").items();
  });
  for (std::size_t i = 0; i < items.size(); ++i) {
    std::string where = "plan: items[" + std::to_string(i) + "]";
    with_ctx(where, [&] {
      const JsonValue& w = items[i];
      long long id = w.at("id").as_int();
      if (id != static_cast<long long>(i))
        throw WireError("stable id " + std::to_string(id) +
                        " out of order (expected " + std::to_string(i) + ")");
      long long point = w.at("point").as_int();
      if (point < 0 || point >= static_cast<long long>(plan.points.size()))
        throw WireError("point index " + std::to_string(point) +
                        " out of range (plan has " +
                        std::to_string(plan.points.size()) + " points)");
      const std::string& tag =
          plan.points[static_cast<std::size_t>(point)].site.tag;
      std::string site = w.at("site").as_string();
      if (site != tag)
        throw WireError("site '" + site + "' does not match point " +
                        std::to_string(point) + "'s site '" + tag + "'");
      FaultKind kind = fault_kind_from(w.at("kind").as_string());
      WorkItem item{static_cast<std::size_t>(point),
                    wire_detail::parse_fault(kind, w.at("fault").as_string())};
      // Optional perturbation parameter (search-generated items only);
      // absent means 0, and the serializer omits 0, so exhaustive plans
      // round-trip byte-identically.
      if (const JsonValue* param = w.find("param")) {
        item.param = param->as_u64();
        if (item.param == 0)
          throw WireError("param 0 must be a positive integer when present");
      }
      plan.items.push_back(item);
    });
  }
  return plan;
}

void refreeze_snapshot(InjectionPlan& plan, const Scenario& scenario) {
  if (scenario.snapshot_safe && !plan.items.empty() && !plan.snapshot)
    plan.snapshot = WorldSnapshot::freeze(scenario.build());
}

std::vector<std::size_t> shard_item_ids(std::size_t total_items,
                                        std::size_t shard_index,
                                        std::size_t shard_count) {
  if (shard_count == 0) throw WireError("shard count must be >= 1");
  if (shard_index >= shard_count)
    throw WireError("shard index " + std::to_string(shard_index + 1) +
                    " out of range for " + std::to_string(shard_count) +
                    " shards");
  std::vector<std::size_t> ids;
  ids.reserve(total_items / shard_count + 1);
  for (std::size_t i = shard_index; i < total_items; i += shard_count)
    ids.push_back(i);
  return ids;
}

std::string feedback_spec(const InjectionPlan& plan, std::size_t begin,
                          std::size_t end) {
  if (begin >= end || end > plan.items.size())
    throw WireError("feedback range [" + std::to_string(begin) + ", " +
                    std::to_string(end) + ") does not fit the plan (" +
                    std::to_string(plan.items.size()) + " items)");
  std::string out;
  for (std::size_t i = begin; i < end; ++i) {
    const WorkItem& w = plan.items[i];
    if (i != begin) out += ',';
    out += std::to_string(w.point_index);
    out += w.fault.kind == FaultKind::indirect ? ":i:" : ":d:";
    out += w.fault.name();
    out += ':';
    out += std::to_string(w.param);
  }
  return out;
}

namespace {

/// Strict non-negative decimal for feedback-spec fields: digits only, no
/// sign, no prefix, capped at long long max (search params live in
/// [1, 2^63)).
unsigned long long parse_spec_number(const std::string& field,
                                     const char* what) {
  if (field.empty())
    throw WireError(std::string("feedback spec: empty ") + what + " field");
  unsigned long long v = 0;
  for (char c : field) {
    if (c < '0' || c > '9')
      throw WireError(std::string("feedback spec: ") + what + " '" + field +
                      "' is not a plain decimal number");
    unsigned long long digit = static_cast<unsigned long long>(c - '0');
    if (v > (static_cast<unsigned long long>(LLONG_MAX) - digit) / 10)
      throw WireError(std::string("feedback spec: ") + what + " '" + field +
                      "' does not fit a 64-bit signed integer");
    v = v * 10 + digit;
  }
  return v;
}

}  // namespace

std::vector<WorkItem> parse_feedback_spec(const std::string& spec,
                                          std::size_t point_count) {
  if (spec.empty()) throw WireError("feedback spec is empty");
  std::vector<WorkItem> items;
  std::size_t pos = 0;
  for (;;) {
    std::size_t comma = spec.find(',', pos);
    std::string entry = comma == std::string::npos
                            ? spec.substr(pos)
                            : spec.substr(pos, comma - pos);
    // point:kind:fault:param — exactly four ':'-separated fields.
    std::vector<std::string> fields;
    std::size_t fpos = 0;
    for (;;) {
      std::size_t colon = entry.find(':', fpos);
      if (colon == std::string::npos) {
        fields.push_back(entry.substr(fpos));
        break;
      }
      fields.push_back(entry.substr(fpos, colon - fpos));
      fpos = colon + 1;
    }
    if (fields.size() != 4)
      throw WireError("feedback spec entry '" + entry +
                      "' is not point:kind:fault:param");
    WorkItem item;
    unsigned long long point = parse_spec_number(fields[0], "point");
    if (point >= point_count)
      throw WireError("feedback spec: point index " + fields[0] +
                      " out of range (plan has " +
                      std::to_string(point_count) + " points)");
    item.point_index = static_cast<std::size_t>(point);
    FaultKind kind;
    if (fields[1] == "i")
      kind = FaultKind::indirect;
    else if (fields[1] == "d")
      kind = FaultKind::direct;
    else
      throw WireError("feedback spec: fault kind '" + fields[1] +
                      "' is neither 'i' nor 'd'");
    item.fault = wire_detail::parse_fault(kind, fields[2]);
    item.param = parse_spec_number(fields[3], "param");
    items.push_back(item);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return items;
}

std::string ShardReport::to_json() const {
  // The columnar version-2 encoding: `completed_ids` names the ids this
  // file actually holds (the resume key), and only the run-dependent
  // outcome fields are serialized — one array per field, so the per-
  // outcome framing and the plan-redundant strings of version 1 are gone.
  std::string out = "{\n";
  out += "  \"schema_version\": " + std::to_string(kShardSchemaVersion) +
         ",\n";
  out += "  \"kind\": \"shard-report\",\n";
  out += "  \"scenario\": " + json_quote(scenario_name) + ",\n";
  out += "  \"shard_index\": " + std::to_string(shard_index) + ",\n";
  out += "  \"shard_count\": " + std::to_string(shard_count) + ",\n";
  out += "  \"plan_items\": " + std::to_string(plan_items) + ",\n";
  if (leased) {
    // The optional lease: only leased reports carry it, so modulo shard
    // files keep their pre-lease bytes and round-trip unchanged.
    out += "  \"assigned_ids\": [";
    for (std::size_t i = 0; i < assigned_ids.size(); ++i)
      out += (i ? ", " : "") + std::to_string(assigned_ids[i]);
    out += "],\n";
  }
  out += std::string("  \"complete\": ") + (complete ? "true" : "false") +
         ",\n";
  out += "  \"completed_ids\": [";
  for (std::size_t i = 0; i < item_ids.size(); ++i)
    out += (i ? ", " : "") + std::to_string(item_ids[i]);
  out += "],\n";

  out += "  \"outcomes\": {\n";
  out += wire_detail::outcome_columns_json(outcomes, "    ");
  out += "  }\n}\n";
  return out;
}

ShardReport shard_report_from_json(const std::string& text) {
  JsonValue doc = parse_document(text, "shard report");
  int version = check_header(doc, "shard-report", "shard report", 1,
                             kShardSchemaVersion);
  ShardReport report = parse_shard_header(doc, version);
  if (version >= 2) {
    parse_assigned_ids(doc, report);
    report.complete = with_ctx("shard report: complete",
                               [&] { return doc.at("complete").as_bool(); });
    parse_shard_outcomes_v2(doc, report);
  } else {
    parse_shard_outcomes_v1(doc, report);
  }

  // `complete` is derived state: the ids are each owned and unique, so
  // coverage is a count comparison. Version 1 files predate the flag and
  // infer it; a version-2 flag that disagrees is a corrupt file.
  wire_detail::validate_complete_flag(report,
                                      /*flag_on_wire=*/version >= 2);
  return report;
}

namespace {

/// The shared drain behind run_shard, run_lease, and resume_shard:
/// execute the `owned` ids (the modulo partition, or the lease already
/// recorded in `header`) not already in (done_ids, done_outcomes),
/// optionally flushing a valid partial report after every checkpoint
/// chunk, and assemble the combined report ascending by id. Preemption
/// (hooks.interrupted) stops between chunks and yields complete == false.
ShardReport drain_shard(const Executor& executor, const InjectionPlan& plan,
                        const ShardReport& header,
                        const std::vector<std::size_t>& owned,
                        const std::vector<std::size_t>& done_ids,
                        const std::vector<InjectionOutcome>& done_outcomes,
                        const ExecutorOptions& opts,
                        const ShardDrainHooks& hooks) {
  std::vector<std::size_t> todo;  // owned minus done, ascending
  {
    std::size_t d = 0;
    for (std::size_t id : owned) {
      while (d < done_ids.size() && done_ids[d] < id) ++d;
      if (d < done_ids.size() && done_ids[d] == id) continue;
      todo.push_back(id);
    }
  }

  // Merge the prior outcomes and the drained prefix ascending by id —
  // the serialized bytes must match an uninterrupted run no matter where
  // (or whether) the drain was cut.
  auto assemble = [&](const std::vector<InjectionOutcome>& drained) {
    ShardReport r = header;
    r.item_ids.reserve(done_ids.size() + drained.size());
    r.outcomes.reserve(done_ids.size() + drained.size());
    std::size_t a = 0, b = 0;
    while (a < done_ids.size() || b < drained.size()) {
      if (b >= drained.size() ||
          (a < done_ids.size() && done_ids[a] < todo[b])) {
        r.item_ids.push_back(done_ids[a]);
        r.outcomes.push_back(done_outcomes[a]);
        ++a;
      } else {
        r.item_ids.push_back(todo[b]);
        r.outcomes.push_back(drained[b]);
        ++b;
      }
    }
    r.complete = r.item_ids.size() == owned.size();
    return r;
  };

  std::function<void(const std::vector<InjectionOutcome>&)> flush;
  if (hooks.on_checkpoint)
    flush = [&](const std::vector<InjectionOutcome>& prefix) {
      hooks.on_checkpoint(assemble(prefix));
    };
  return assemble(executor.execute_subset_checkpointed(
      plan, todo, hooks.checkpoint_every, flush, hooks.interrupted, opts));
}

}  // namespace

ShardReport run_shard(const Executor& executor, const InjectionPlan& plan,
                      std::size_t shard_index, std::size_t shard_count,
                      const ExecutorOptions& opts,
                      const ShardDrainHooks& hooks) {
  ShardReport header;
  header.scenario_name = plan.scenario_name;
  header.shard_index = shard_index;
  header.shard_count = shard_count;
  header.plan_items = plan.items.size();
  return drain_shard(executor, plan, header,
                     shard_item_ids(plan.items.size(), shard_index,
                                    shard_count),
                     {}, {}, opts, hooks);
}

ShardReport run_lease(const Executor& executor, const InjectionPlan& plan,
                      std::size_t begin, std::size_t end,
                      const ExecutorOptions& opts,
                      const ShardDrainHooks& hooks) {
  if (begin > end || end > plan.items.size())
    throw WireError("lease [" + std::to_string(begin) + ", " +
                    std::to_string(end) + ") does not fit the plan (" +
                    std::to_string(plan.items.size()) + " items)");
  ShardReport header;
  header.scenario_name = plan.scenario_name;
  header.plan_items = plan.items.size();
  header.leased = true;
  header.assigned_ids.reserve(end - begin);
  for (std::size_t id = begin; id < end; ++id)
    header.assigned_ids.push_back(id);
  return drain_shard(executor, plan, header, header.assigned_ids, {}, {},
                     opts, hooks);
}

ShardReport resume_shard(const Executor& executor, const InjectionPlan& plan,
                         const ShardReport& partial,
                         const ExecutorOptions& opts,
                         const ShardDrainHooks& hooks) {
  // The parser already held wire files to the shard-level invariants;
  // re-check here so in-memory callers get the same guarantees, plus the
  // plan-level matches only resume can check.
  if (partial.scenario_name != plan.scenario_name)
    throw WireError("resume: report's scenario '" + partial.scenario_name +
                    "' does not match the plan's '" + plan.scenario_name +
                    "'");
  if (partial.plan_items != plan.items.size())
    throw WireError("resume: report written against a plan with " +
                    std::to_string(partial.plan_items) +
                    " work items; this plan has " +
                    std::to_string(plan.items.size()));
  if (partial.shard_count == 0)
    throw WireError("resume: shard_count must be >= 1");
  if (partial.shard_index >= partial.shard_count)
    throw WireError("resume: shard_index " +
                    std::to_string(partial.shard_index) +
                    " out of range for shard_count " +
                    std::to_string(partial.shard_count));
  if (partial.item_ids.size() != partial.outcomes.size())
    throw WireError("resume: item id / outcome count mismatch");
  if (partial.leased &&
      (partial.shard_index != 0 || partial.shard_count != 1))
    throw WireError(
        "resume: a leased report (assigned_ids) must carry shard_index 0 "
        "and shard_count 1, not shard " +
        std::to_string(partial.shard_index + 1) + "/" +
        std::to_string(partial.shard_count));
  // `checked` doubles as the drain header once validation passes — one
  // place to populate, so header and validation can never disagree.
  ShardReport checked;
  checked.scenario_name = plan.scenario_name;
  checked.shard_index = partial.shard_index;
  checked.shard_count = partial.shard_count;
  checked.plan_items = partial.plan_items;
  checked.leased = partial.leased;
  for (std::size_t id : partial.assigned_ids) {
    if (id >= plan.items.size())
      throw WireError("resume: assigned id " + std::to_string(id) +
                      " out of range (plan has " +
                      std::to_string(plan.items.size()) + " items)");
    if (!checked.assigned_ids.empty() && id <= checked.assigned_ids.back())
      throw WireError("resume: assigned_ids must ascend without duplicates");
    checked.assigned_ids.push_back(id);
  }
  if (checked.leased) {
    // Leased resume: item_ids and assigned_ids both ascend, so lease
    // membership is one two-pointer walk over the lease — the previous
    // per-id binary search re-walked the assigned set for every
    // completed id, which a merge --all resume sweep repeated per file.
    std::size_t cursor = 0;
    for (std::size_t i = 0; i < partial.item_ids.size(); ++i) {
      std::size_t id = partial.item_ids[i];
      if (id >= checked.plan_items)
        throw WireError("work-item id " + std::to_string(id) +
                        " out of range (plan has " +
                        std::to_string(checked.plan_items) + " items)");
      if (i > 0) {
        std::size_t prev = partial.item_ids[i - 1];
        if (id == prev)
          throw WireError("duplicate outcome for work item " +
                          std::to_string(id));
        if (id < prev)
          throw WireError("completed_ids out of order (" +
                          std::to_string(id) + " after " +
                          std::to_string(prev) + ")");
      }
      while (cursor < checked.assigned_ids.size() &&
             checked.assigned_ids[cursor] < id)
        ++cursor;
      if (cursor >= checked.assigned_ids.size() ||
          checked.assigned_ids[cursor] != id)
        throw WireError("work-item id " + std::to_string(id) +
                        " is not in this report's assigned_ids lease");
    }
  } else {
    for (std::size_t id : partial.item_ids) {
      wire_detail::check_completed_id(checked, static_cast<long long>(id),
                                      /*require_ascending=*/true);
      checked.item_ids.push_back(id);
    }
    checked.item_ids.clear();
  }
  return drain_shard(executor, plan, checked,
                     partial.leased
                         ? partial.assigned_ids
                         : shard_item_ids(plan.items.size(),
                                          partial.shard_index,
                                          partial.shard_count),
                     partial.item_ids, partial.outcomes, opts, hooks);
}

CampaignResult merge_shard_reports(const InjectionPlan& plan,
                                   const std::vector<ShardReport>& shards,
                                   const std::vector<std::string>& labels) {
  if (shards.empty()) throw WireError("merge: no shard reports given");
  if (!labels.empty() && labels.size() != shards.size())
    throw WireError("merge: got " + std::to_string(shards.size()) +
                    " shard report(s) but " + std::to_string(labels.size()) +
                    " label(s)");
  const std::size_t n = plan.items.size();

  // Attribute every diagnostic to its source file when the caller named
  // one — "shard 3/7" alone does not say which of seven paths to fix.
  auto who_of = [&](std::size_t si) {
    const ShardReport& s = shards[si];
    std::string who =
        s.leased ? "lease report " + std::to_string(si + 1)
                 : "shard " + std::to_string(s.shard_index + 1) + "/" +
                       std::to_string(s.shard_count);
    if (si < labels.size() && !labels[si].empty())
      who += " (" + labels[si] + ")";
    return who;
  };

  // A merge is either a modulo shard set or a lease partition; a mixed
  // set has no single ownership rule to validate against.
  const bool lease_mode = shards.front().leased;
  for (std::size_t si = 0; si < shards.size(); ++si)
    if (shards[si].leased != lease_mode)
      throw WireError(who_of(si) +
                      ": cannot mix lease-based (assigned_ids) and modulo "
                      "shard reports in one merge");

  const std::size_t shard_count = shards.front().shard_count;
  if (!lease_mode) {
    // shard_count is untrusted input and must not size an allocation
    // until it is bounded by something we were actually handed. A
    // complete merge has exactly one report per shard, so any mismatch is
    // an error anyway — and with counts equal, a missing shard implies a
    // duplicate one.
    if (shard_count != shards.size())
      throw WireError("merge: got " + std::to_string(shards.size()) +
                      " shard report(s) but shard_count is " +
                      std::to_string(shard_count) +
                      "; every shard must be present exactly once");
  }

  CampaignResult result = result_skeleton(plan);

  // The plan-redundant outcome fields (site/call/object/fault), resolved
  // once per merge into an id-indexed table. They used to be re-derived
  // inside the per-report loop, so an `--all` merge re-resolved point and
  // fault catalog entries for every report file it read; every report now
  // indexes the same table.
  struct Derived {
    const InteractionPoint* point;
    const WorkItem* item;
    const std::string* description;
  };
  std::vector<Derived> derived;
  derived.reserve(n);
  for (std::size_t id = 0; id < n; ++id) {
    const WorkItem& item = plan.items[id];
    derived.push_back({&plan.point_of(item), &item,
                       item.fault.kind == FaultKind::indirect
                           ? &item.fault.indirect->description
                           : &item.fault.direct->description});
  }

  std::vector<bool> shard_seen(lease_mode ? 0 : shard_count, false);
  std::vector<std::size_t> seen_by(lease_mode ? 0 : shard_count, 0);
  // The id -> owning-report map, built once up front: both the
  // disjointness check and the missing-outcome attribution below resolve
  // owners through it instead of rescanning the shard list per item.
  constexpr std::size_t kUnowned = static_cast<std::size_t>(-1);
  std::vector<std::size_t> owner_of(lease_mode ? n : 0, kUnowned);
  std::vector<bool> id_seen(n, false);

  for (std::size_t si = 0; si < shards.size(); ++si) {
    const ShardReport& s = shards[si];
    std::string who = who_of(si);
    if (s.scenario_name != plan.scenario_name)
      throw WireError(who + ": scenario '" + s.scenario_name +
                      "' does not match the plan's '" + plan.scenario_name +
                      "'");
    if (s.plan_items != n)
      throw WireError(who + ": written against a plan with " +
                      std::to_string(s.plan_items) +
                      " work items; this plan has " + std::to_string(n));
    if (lease_mode) {
      // Any disjoint id-partition covering the plan merges: record this
      // report's lease in the owner map, rejecting overlap as it appears.
      for (std::size_t id : s.assigned_ids) {
        if (id >= n)
          throw WireError(who + ": assigned id " + std::to_string(id) +
                          " out of range (plan has " + std::to_string(n) +
                          " items)");
        if (owner_of[id] != kUnowned)
          throw WireError("work item " + std::to_string(id) +
                          " is leased to both " + who_of(owner_of[id]) +
                          " and " + who);
        owner_of[id] = si;
      }
      if (s.item_ids.size() != s.assigned_ids.size())
        throw WireError(who + ": is a partial lease report (" +
                        std::to_string(s.item_ids.size()) + " of " +
                        std::to_string(s.assigned_ids.size()) +
                        " leased ids completed; finish it with run-shard "
                        "--resume)");
    } else {
      if (s.shard_count != shard_count)
        throw WireError(who + ": shard_count " +
                        std::to_string(s.shard_count) +
                        " disagrees with the first report's " +
                        std::to_string(shard_count));
      if (s.shard_index >= shard_count)
        throw WireError(who + ": shard_index out of range");
      if (shard_seen[s.shard_index])
        throw WireError("duplicate report for " + who + " (also " +
                        who_of(seen_by[s.shard_index]) + ")");
      shard_seen[s.shard_index] = true;
      seen_by[s.shard_index] = si;
    }
    if (s.item_ids.size() != s.outcomes.size())
      throw WireError(who + ": item id / outcome count mismatch");

    for (std::size_t i = 0; i < s.item_ids.size(); ++i) {
      std::size_t id = s.item_ids[i];
      if (id >= n)
        throw WireError(who + ": work-item id " + std::to_string(id) +
                        " out of range (plan has " + std::to_string(n) +
                        " items)");
      if (id_seen[id])
        throw WireError(who + ": duplicate outcome for work item " +
                        std::to_string(id));
      const WorkItem& item = *derived[id].item;
      const InteractionPoint& point = *derived[id].point;
      InjectionOutcome o = s.outcomes[i];
      // Version-1 reports (and in-process ones) carry the plan-keyed
      // fields; hold them to the plan. Version-2 reports do not put them
      // on the wire at all (fault_name is empty after parse).
      if (!o.fault_name.empty() &&
          (o.fault_name != item.fault.name() || !(o.site == point.site)))
        throw WireError(who + ": outcome for work item " + std::to_string(id) +
                        " is fault '" + o.fault_name + "' at " + o.site.str() +
                        " but the plan's item " + std::to_string(id) +
                        " is '" + item.fault.name() + "' at " +
                        point.site.str() + " (report from a different plan?)");
      // Re-derive them from the plan by stable id, the single source of
      // truth — the merged result is field-identical to a local drain.
      o.site = point.site;
      o.call = point.call;
      o.object = point.object;
      o.kind = item.fault.kind;
      o.fault_name = item.fault.name();
      o.fault_description = *derived[id].description;
      id_seen[id] = true;
      result.injections[id] = std::move(o);
    }
  }

  // Every report's ids are in range and duplicate-free; only coverage can
  // still fail — a modulo shard that is an unresumed partial file, or a
  // lease set that does not add back up to the plan. Owners resolve
  // through the precomputed maps (seen_by / owner_of), never a rescan of
  // the shard list.
  for (std::size_t id = 0; id < n; ++id)
    if (!id_seen[id]) {
      if (lease_mode) {
        // A leased id without an outcome was already rejected as a
        // partial report above, so the gap is in the lease set itself.
        throw WireError("work item " + std::to_string(id) +
                        " is not covered by any lease (the lease set does "
                        "not add back up to the plan)");
      }
      throw WireError("work item " + std::to_string(id) +
                      " has no outcome — " + who_of(seen_by[id % shard_count]) +
                      " is a partial report (complete it with run-shard "
                      "--resume)");
    }
  return result;
}

}  // namespace ep::core
