#include "apps/scenarios.hpp"

#include <functional>

#include "apps/families.hpp"
#include "apps/redzone_demo.hpp"

namespace ep::apps {

namespace {

/// One packaged scenario: its name and the factory that compiles it.
struct Packaged {
  std::string name;
  std::function<core::Scenario()> make;
};

/// The packaged suite in sweep order, as name -> factory: resolving a
/// name compiles that one scenario, not all 21 (a worker switching
/// plans resolves a scenario per switch).
const std::vector<Packaged>& packaged() {
  static const std::vector<Packaged> table = [] {
    std::vector<Packaged> t = {
        {"lpr", lpr_scenario},
        {"turnin", turnin_scenario},
        {"turnin-hardened", turnin_hardened_scenario},
        {"mailer", mailer_scenario},
        {"logind", logind_scenario},
        {"logind-hardened", logind_hardened_scenario},
        {"netcpd", netcpd_scenario},
        {"cronhelpd", cronhelpd_scenario},
        {"rshd", rshd_scenario},
        {"journald", journald_scenario},
        {"vault", vault_scenario},
        {"vault-fixed", vault_fixed_scenario},
    };
    for (const auto& m : nt_modules())
      t.push_back({"nt-" + m.module,
                   [module = m.module] { return nt_module_scenario(module); }});
    return t;
  }();
  return table;
}

}  // namespace

std::vector<core::Scenario> all_scenarios() {
  std::vector<core::Scenario> out;
  for (const Packaged& p : packaged()) out.push_back(p.make());
  return out;
}

std::optional<core::Scenario> resolve_scenario(const std::string& name) {
  for (const Packaged& p : packaged())
    if (p.name == name) return p.make();
  // Reachable by name though absent from the packaged sweep: the redzone
  // oracle demo.
  if (name == "redzone-demo") return redzone_demo_scenario();
  return find_generated_scenario(name);
}

std::optional<core::ScenarioSpec> resolve_spec(const std::string& name) {
  std::vector<core::ScenarioSpec> packaged;
  packaged.push_back(lpr_spec());
  packaged.push_back(turnin_spec(/*hardened=*/false));
  packaged.push_back(turnin_spec(/*hardened=*/true));
  packaged.push_back(mailer_spec());
  packaged.push_back(logind_spec(/*hardened=*/false));
  packaged.push_back(logind_spec(/*hardened=*/true));
  packaged.push_back(netcpd_spec());
  packaged.push_back(cronhelpd_spec());
  packaged.push_back(rshd_spec());
  packaged.push_back(journald_spec());
  packaged.push_back(vault_spec(/*fixed=*/false));
  packaged.push_back(vault_spec(/*fixed=*/true));
  for (const auto& m : nt_modules())
    packaged.push_back(nt_module_spec(m.module));
  packaged.push_back(redzone_demo_spec());
  for (auto& s : packaged) {
    if (s.name == name) return std::move(s);
  }
  for (const auto& f : scenario_families()) {
    if (name.rfind(f.name + "-", 0) != 0) continue;
    for (auto& spec : core::expand_family(f)) {
      if (spec.name == name) return std::move(spec);
    }
  }
  return std::nullopt;
}

std::string scenario_names_hint() {
  std::string out = "scenarios:";
  for (const Packaged& p : packaged()) out += " " + p.name;
  out += " redzone-demo; families:";
  for (const auto& f : scenario_families()) {
    out += " " + f.name + "-* (" + std::to_string(core::family_size(f)) +
           " members)";
  }
  out += "; see: epa_cli scenarios";
  return out;
}

}  // namespace ep::apps
