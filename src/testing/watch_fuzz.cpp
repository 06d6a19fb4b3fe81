#include "src/testing/watch_fuzz.hpp"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <utility>

#include "src/config/diff.hpp"
#include "src/config/emit.hpp"
#include "src/config/parse.hpp"
#include "src/core/patch_mode.hpp"
#include "src/core/pipeline_runner.hpp"
#include "src/netgen/scale_families.hpp"
#include "src/testing/differential.hpp"

namespace confmask {

namespace {

Ipv4Prefix random_prefix(Rng& rng) {
  // A random 10.x.y.0/24: disjoint from nothing in particular — overlap
  // with live host prefixes is exactly what exercises the dirty-set path.
  const auto mid = static_cast<std::uint32_t>(rng.below(1u << 16));
  return Ipv4Prefix{Ipv4Address{(10u << 24) | (mid << 8)}, 24};
}

/// A prefix-list name unused by every router (diff semantics are
/// name-scoped per router, but globally-unique names keep the edit log
/// unambiguous).
std::string fresh_list_name(const ConfigSet& configs, Rng& rng) {
  for (;;) {
    std::string name = "pl-fz" + std::to_string(rng.below(1'000'000));
    bool taken = false;
    for (const auto& router : configs.routers) {
      for (const auto& list : router.prefix_lists) {
        if (list.name == name) taken = true;
      }
    }
    if (!taken) return name;
  }
}

/// Adds a fresh deny-then-permit-all list and binds it as a distribute
/// list on a random IGP interface. Applicable to any router that runs an
/// IGP and has an interface — i.e. essentially always — so this doubles
/// as the fallback edit when a pickier one finds no applicable site.
bool add_list_and_bind(ConfigSet& configs, Rng& rng,
                       std::vector<std::string>& log) {
  std::vector<std::size_t> eligible;
  for (std::size_t i = 0; i < configs.routers.size(); ++i) {
    const RouterConfig& router = configs.routers[i];
    if ((router.ospf || router.rip) && !router.interfaces.empty()) {
      eligible.push_back(i);
    }
  }
  if (eligible.empty()) return false;
  RouterConfig& router = configs.routers[rng.pick(eligible)];
  PrefixList list;
  list.name = fresh_list_name(configs, rng);
  list.add_deny(random_prefix(rng));
  list.add_permit_all();
  const std::string iface =
      router.interfaces[rng.below(router.interfaces.size())].name;
  auto& lists = router.ospf ? router.ospf->distribute_lists
                            : router.rip->distribute_lists;
  lists.push_back(DistributeList{list.name, iface});
  log.push_back("bind new list " + list.name + " on " + router.hostname +
                " " + iface);
  router.prefix_lists.push_back(std::move(list));
  return true;
}

bool append_list_entry(ConfigSet& configs, Rng& rng,
                       std::vector<std::string>& log) {
  std::vector<std::size_t> eligible;
  for (std::size_t i = 0; i < configs.routers.size(); ++i) {
    if (!configs.routers[i].prefix_lists.empty()) eligible.push_back(i);
  }
  if (eligible.empty()) return false;
  RouterConfig& router = configs.routers[rng.pick(eligible)];
  PrefixList& list =
      router.prefix_lists[rng.below(router.prefix_lists.size())];
  list.add_deny(random_prefix(rng));
  log.push_back("append deny to list " + list.name + " on " +
                router.hostname);
  return true;
}

bool remove_list_entry(ConfigSet& configs, Rng& rng,
                       std::vector<std::string>& log) {
  std::vector<std::pair<std::size_t, std::size_t>> eligible;
  for (std::size_t i = 0; i < configs.routers.size(); ++i) {
    const auto& lists = configs.routers[i].prefix_lists;
    for (std::size_t j = 0; j < lists.size(); ++j) {
      if (lists[j].entries.size() >= 2) eligible.emplace_back(i, j);
    }
  }
  if (eligible.empty()) return false;
  const auto [r, l] = eligible[rng.below(eligible.size())];
  PrefixList& list = configs.routers[r].prefix_lists[l];
  list.entries.erase(list.entries.begin() +
                     static_cast<std::ptrdiff_t>(rng.below(
                         list.entries.size())));
  log.push_back("remove entry from list " + list.name + " on " +
                configs.routers[r].hostname);
  return true;
}

bool flip_list_entry(ConfigSet& configs, Rng& rng,
                     std::vector<std::string>& log) {
  std::vector<std::pair<std::size_t, std::size_t>> eligible;
  for (std::size_t i = 0; i < configs.routers.size(); ++i) {
    const auto& lists = configs.routers[i].prefix_lists;
    for (std::size_t j = 0; j < lists.size(); ++j) {
      if (!lists[j].entries.empty()) eligible.emplace_back(i, j);
    }
  }
  if (eligible.empty()) return false;
  const auto [r, l] = eligible[rng.below(eligible.size())];
  PrefixList& list = configs.routers[r].prefix_lists[l];
  PrefixListEntry& entry =
      list.entries[rng.below(list.entries.size())];
  entry.permit = !entry.permit;
  log.push_back("flip entry " + std::to_string(entry.seq) + " of list " +
                list.name + " on " + configs.routers[r].hostname);
  return true;
}

bool unbind_distribute_list(ConfigSet& configs, Rng& rng,
                            std::vector<std::string>& log) {
  std::vector<std::size_t> eligible;
  for (std::size_t i = 0; i < configs.routers.size(); ++i) {
    const RouterConfig& router = configs.routers[i];
    const bool bound =
        (router.ospf && !router.ospf->distribute_lists.empty()) ||
        (router.rip && !router.rip->distribute_lists.empty());
    if (bound) eligible.push_back(i);
  }
  if (eligible.empty()) return false;
  RouterConfig& router = configs.routers[rng.pick(eligible)];
  auto& lists = router.ospf && !router.ospf->distribute_lists.empty()
                    ? router.ospf->distribute_lists
                    : router.rip->distribute_lists;
  const std::size_t victim = rng.below(lists.size());
  log.push_back("unbind list " + lists[victim].prefix_list + " on " +
                router.hostname);
  lists.erase(lists.begin() + static_cast<std::ptrdiff_t>(victim));
  return true;
}

bool edit_access_list(ConfigSet& configs, Rng& rng,
                      std::vector<std::string>& log) {
  std::vector<std::size_t> eligible;
  for (std::size_t i = 0; i < configs.routers.size(); ++i) {
    if (!configs.routers[i].access_lists.empty()) eligible.push_back(i);
  }
  if (eligible.empty()) return false;
  RouterConfig& router = configs.routers[rng.pick(eligible)];
  AccessList& acl =
      router.access_lists[rng.below(router.access_lists.size())];
  AclEntry entry;
  entry.permit = rng.chance(0.5);
  entry.source = random_prefix(rng);
  entry.destination = Ipv4Prefix{Ipv4Address{0u}, 0};
  acl.entries.insert(acl.entries.begin(), entry);
  log.push_back("prepend entry to acl " + std::to_string(acl.number) +
                " on " + router.hostname);
  return true;
}

bool change_ospf_cost(ConfigSet& configs, Rng& rng,
                      std::vector<std::string>& log) {
  std::vector<std::size_t> eligible;
  for (std::size_t i = 0; i < configs.routers.size(); ++i) {
    if (configs.routers[i].ospf && !configs.routers[i].interfaces.empty()) {
      eligible.push_back(i);
    }
  }
  if (eligible.empty()) return false;
  RouterConfig& router = configs.routers[rng.pick(eligible)];
  InterfaceConfig& iface =
      router.interfaces[rng.below(router.interfaces.size())];
  iface.ospf_cost = 1 + static_cast<int>(rng.below(40));
  log.push_back("set ospf cost " + std::to_string(*iface.ospf_cost) +
                " on " + router.hostname + " " + iface.name);
  return true;
}

bool rename_router(ConfigSet& configs, Rng& rng,
                   std::vector<std::string>& log) {
  if (configs.routers.empty()) return false;
  RouterConfig& router =
      configs.routers[rng.below(configs.routers.size())];
  const std::string renamed =
      router.hostname + "-rn" + std::to_string(rng.below(1000));
  log.push_back("rename " + router.hostname + " -> " + renamed);
  router.hostname = renamed;
  return true;
}

bool remove_host(ConfigSet& configs, Rng& rng,
                 std::vector<std::string>& log) {
  if (configs.hosts.size() < 2) return false;
  const std::size_t victim = rng.below(configs.hosts.size());
  log.push_back("remove host " + configs.hosts[victim].hostname);
  configs.hosts.erase(configs.hosts.begin() +
                      static_cast<std::ptrdiff_t>(victim));
  return true;
}

bool apply_filter_edit(ConfigSet& configs, Rng& rng,
                       std::vector<std::string>& log) {
  switch (rng.below(6)) {
    case 0: return add_list_and_bind(configs, rng, log);
    case 1: return append_list_entry(configs, rng, log);
    case 2: return remove_list_entry(configs, rng, log);
    case 3: return flip_list_entry(configs, rng, log);
    case 4: return unbind_distribute_list(configs, rng, log);
    default: return edit_access_list(configs, rng, log);
  }
}

bool apply_structural_edit(ConfigSet& configs, Rng& rng,
                           std::vector<std::string>& log) {
  switch (rng.below(3)) {
    case 0: return change_ospf_cost(configs, rng, log);
    case 1: return rename_router(configs, rng, log);
    default: return remove_host(configs, rng, log);
  }
}

/// Dumps everything needed to replay a failing case by hand: the base and
/// edited canonical bundles, the wire diff, and a README naming the seed,
/// check, and the edit sequence that got there.
std::string write_watch_repro(const std::string& repro_dir,
                              const WatchFuzzFinding& finding, int k_h,
                              const std::string& base_text,
                              const std::string& edited_text,
                              const std::string& diff_text,
                              const std::vector<std::string>& edit_log) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(repro_dir) / ("watch-seed-" + std::to_string(finding.seed));
  fs::create_directories(dir);
  std::ofstream(dir / "base.cfgset") << base_text;
  std::ofstream(dir / "edited.cfgset") << edited_text;
  std::ofstream(dir / "bundle.diff") << diff_text;
  std::ofstream readme(dir / "README.md");
  readme << "# Watch-mode repro\n\n"
         << "- seed: " << finding.seed << "\n"
         << "- k_h: " << k_h << "\n"
         << "- failing check: " << finding.check << "\n"
         << "- detail: " << finding.detail << "\n"
         << "- edits:\n";
  for (const auto& edit : edit_log) readme << "    - " << edit << "\n";
  readme << "\nReplay: parse_config_set(base.cfgset), run the guarded\n"
            "pipeline with watch capture, finish_capture, then run\n"
            "edited.cfgset cold and patched against that context and\n"
            "compare the anonymized bundles (src/testing/watch_fuzz.cpp).\n";
  return dir.string();
}

/// Index of the first differing byte, for a finding detail that points at
/// the divergence instead of dumping two bundles into a log line.
std::string first_difference(const std::string& lhs, const std::string& rhs) {
  const std::size_t limit = std::min(lhs.size(), rhs.size());
  std::size_t at = 0;
  while (at < limit && lhs[at] == rhs[at]) ++at;
  return "first difference at byte " + std::to_string(at) + " (sizes " +
         std::to_string(lhs.size()) + " vs " + std::to_string(rhs.size()) +
         ")";
}

}  // namespace

std::vector<std::string> apply_random_edits(ConfigSet& configs, Rng& rng,
                                            int edits, bool* structural) {
  std::vector<std::string> log;
  if (structural != nullptr) *structural = false;
  if (configs.routers.empty()) return log;
  for (int i = 0; i < edits; ++i) {
    const bool want_filter = rng.chance(0.7);
    bool applied = false;
    for (int attempt = 0; attempt < 8 && !applied; ++attempt) {
      if (want_filter) {
        applied = apply_filter_edit(configs, rng, log);
      } else {
        applied = apply_structural_edit(configs, rng, log);
        if (applied && structural != nullptr) *structural = true;
      }
    }
    // Guaranteed-applicable fallbacks, so every case gets its full edit
    // count: any IGP router accepts a new bound list; any router accepts
    // a rename.
    if (!applied) applied = add_list_and_bind(configs, rng, log);
    if (!applied && rename_router(configs, rng, log)) {
      if (structural != nullptr) *structural = true;
    }
  }
  return log;
}

WatchFuzzResult run_watch_fuzz_case(std::uint64_t seed,
                                    const WatchFuzzOptions& options) {
  WatchFuzzResult result;
  result.seed = seed;
  // Distinct stream from the generator/decorator, so the edit sequence
  // can vary independently of the topology.
  Rng rng(seed ^ 0xED175EEDull);

  constexpr ScaleFamily kFamilies[] = {
      ScaleFamily::kWaxman, ScaleFamily::kWaxmanRip, ScaleFamily::kMultiAs};
  const int routers =
      options.min_routers +
      static_cast<int>(rng.below(static_cast<std::uint64_t>(
          options.max_routers - options.min_routers + 1)));
  ConfigSet base = make_scale_network(kFamilies[seed % 3], routers, seed);
  decorate_scale_network(base, seed);
  base = canonicalize(std::move(base));
  const std::string base_text = canonical_config_set_text(base);

  ConfMaskOptions pipeline = options.pipeline;
  pipeline.seed = seed * 0x9E3779B97F4A7C15ULL + 1;
  pipeline.k_h = 1 + static_cast<int>(seed % 2);
  result.k_h = pipeline.k_h;

  // The daemon's publish path: cold run with capture, then re-base the
  // captured stage state into the resident context.
  PatchCapture capture;
  const GuardedPipelineResult base_run = run_pipeline_guarded(
      base, pipeline, RetryPolicy{}, nullptr, nullptr, &capture);
  if (!base_run.ok()) {
    result.base_skip = true;
    return result;
  }
  const std::shared_ptr<const PatchContext> context = finish_capture(capture);

  ConfigSet edited = base;
  const int edits =
      1 + static_cast<int>(rng.below(
              static_cast<std::uint64_t>(options.max_edits)));
  const std::vector<std::string> edit_log =
      apply_random_edits(edited, rng, edits, &result.structural);
  result.edits = static_cast<int>(edit_log.size());
  edited = canonicalize(std::move(edited));
  const std::string edited_text = canonical_config_set_text(edited);

  const std::string diff_text = render_bundle_diff(base, edited);

  const auto fail = [&](const std::string& check, std::string detail) {
    result.ok = false;
    WatchFuzzFinding finding;
    finding.seed = seed;
    finding.check = check;
    finding.detail = std::move(detail);
    if (!options.repro_dir.empty()) {
      finding.repro_path = write_watch_repro(
          options.repro_dir, finding, pipeline.k_h, base_text, edited_text,
          diff_text, edit_log);
    }
    result.finding = std::move(finding);
  };

  // Check (a): the wire format reproduces the edited bundle exactly.
  try {
    const ConfigSet reapplied = apply_bundle_diff(base, diff_text);
    const std::string reapplied_text = canonical_config_set_text(reapplied);
    if (reapplied_text != edited_text) {
      fail("diff_roundtrip", first_difference(reapplied_text, edited_text));
      return result;
    }
  } catch (const ConfigParseError& error) {
    fail("diff_roundtrip",
         std::string("apply_bundle_diff rejected its own rendering: ") +
             error.what());
    return result;
  }

  // Check (b): patched ≡ cold, verdict first, then bytes.
  const GuardedPipelineResult cold =
      run_pipeline_guarded(edited, pipeline);
  const GuardedPipelineResult patched = run_pipeline_guarded(
      edited, pipeline, RetryPolicy{}, nullptr, context.get(), nullptr);
  if (patched.ok()) {
    result.patched_stages = patched.result->stats.patched_stages;
    result.replayed = patched.result->stats.anonymity_replayed;
    result.equivalence_replayed =
        patched.result->stats.equivalence_replayed;
  }
  if (cold.ok() != patched.ok()) {
    fail("verdict", std::string("cold ") +
                        (cold.ok() ? "succeeded" : "failed") +
                        " but patched " +
                        (patched.ok() ? "succeeded" : "failed") +
                        (patched.ok() ? "" : ": " +
                                                 patched.diagnostics.message));
    return result;
  }
  if (cold.ok()) {
    const std::string cold_text =
        canonical_config_set_text(cold.result->anonymized);
    const std::string patched_text =
        canonical_config_set_text(patched.result->anonymized);
    if (cold_text != patched_text) {
      fail("bytes", first_difference(cold_text, patched_text));
      return result;
    }
  }
  return result;
}

WatchFuzzStats run_watch_fuzz_corpus(std::uint64_t start_seed, int cases,
                                     const WatchFuzzOptions& options,
                                     double budget_seconds) {
  WatchFuzzStats stats;
  const auto started = std::chrono::steady_clock::now();
  for (int i = 0; i < cases; ++i) {
    if (budget_seconds > 0.0) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - started;
      if (elapsed.count() > budget_seconds) break;
    }
    const WatchFuzzResult result = run_watch_fuzz_case(
        start_seed + static_cast<std::uint64_t>(i), options);
    ++stats.cases;
    if (result.base_skip) ++stats.base_skips;
    if (result.patched_stages > 0) ++stats.patched_cases;
    if (result.replayed) ++stats.replayed_cases;
    if (result.equivalence_replayed) ++stats.equivalence_replayed_cases;
    if (!result.ok && result.finding) {
      ++stats.failures;
      stats.findings.push_back(*result.finding);
    }
  }
  return stats;
}

}  // namespace confmask
