// Composition properties of the whole toolchain: the anonymizer's output
// is itself a valid input (round-trip through text, re-anonymization),
// and the PII add-on composes in either order.
#include <gtest/gtest.h>

#include "src/config/emit.hpp"
#include "src/config/parse.hpp"
#include "src/core/confmask.hpp"
#include "src/core/metrics.hpp"
#include "src/netgen/networks.hpp"
#include "src/pii/pii_addon.hpp"
#include "src/routing/simulation.hpp"

namespace confmask {
namespace {

/// Emits and re-parses a whole configuration set (what a recipient does).
ConfigSet through_text(const ConfigSet& configs) {
  ConfigSet result;
  for (const auto& router : configs.routers) {
    result.routers.push_back(parse_router(emit_router(router)));
  }
  for (const auto& host : configs.hosts) {
    result.hosts.push_back(parse_host(emit_host(host)));
  }
  return result;
}

TEST(Composition, AnonymizedOutputSurvivesTextRoundTrip) {
  ConfMaskOptions options;
  options.seed = 5;
  const auto result = run_confmask(make_university(), options);

  const auto reparsed = through_text(result.anonymized);
  const Simulation direct(result.anonymized);
  const Simulation via_text(reparsed);
  EXPECT_EQ(direct.extract_data_plane(), via_text.extract_data_plane());
}

TEST(Composition, AnonymizingTheAnonymizedStillWorks) {
  // A recipient may themselves re-share: ConfMask applied to ConfMask
  // output must preserve the (already anonymized) data plane exactly.
  ConfMaskOptions options;
  options.k_r = 4;
  options.seed = 6;
  const auto first = run_confmask(make_figure2(), options);
  ASSERT_TRUE(first.functionally_equivalent);

  options.seed = 7;
  const auto second = run_confmask(first.anonymized, options);
  EXPECT_TRUE(second.equivalence_converged);
  EXPECT_TRUE(second.functionally_equivalent);
  // Everything from round one (including round-one fakes) is preserved.
  EXPECT_GE(second.anonymized.hosts.size(), first.anonymized.hosts.size());
}

TEST(Composition, PiiThenConfMask) {
  // The reverse order also works: scrub PII first, anonymize topology and
  // routes second. (The paper recommends ConfMask first, PII as add-on;
  // both must be functional.)
  const auto original = make_backbone();
  PiiOptions pii_options;
  const auto pii = apply_pii_addon(original, pii_options);

  ConfMaskOptions options;
  options.seed = 8;
  const auto result = run_confmask(pii.configs, options);
  EXPECT_TRUE(result.functionally_equivalent);
}

TEST(Composition, StatsAreInternallyConsistent) {
  ConfMaskOptions options;
  options.seed = 9;
  options.k_h = 3;
  const ConfigSet original = make_enterprise();
  const auto result = run_confmask(original, options);
  // Line accounting: the bundle counts match the emitted totals, and
  // anonymization only adds lines.
  const BundleLineStats lines = bundle_line_stats(original, result.anonymized);
  EXPECT_EQ(lines.anonymized.total(), config_set_total_lines(result.anonymized));
  EXPECT_EQ(lines.original.total(), config_set_total_lines(original));
  EXPECT_GT(lines.added(), 0u);
  // Host bookkeeping: every reported fake host exists in the output.
  for (const auto& name : result.fake_hosts) {
    EXPECT_NE(result.anonymized.find_host(name), nullptr) << name;
  }
  // The original + fakes account for all hosts.
  EXPECT_EQ(result.anonymized.hosts.size(),
            make_enterprise().hosts.size() + result.fake_hosts.size());
}

TEST(Composition, VerificationCatchesTampering) {
  // Sanity for the verification itself: breaking the anonymized network
  // must flip the data-plane comparison. (Guards against a vacuous
  // functionally_equivalent flag.)
  ConfMaskOptions options;
  options.seed = 10;
  auto result = run_confmask(make_figure2(), options);
  ASSERT_TRUE(result.functionally_equivalent);

  // Tamper: shut down a real interface and re-verify manually.
  auto tampered = result.anonymized;
  tampered.find_router("r3")->interfaces[0].shutdown = true;
  const Simulation sim(tampered);
  std::set<std::string> real_hosts;
  for (const auto& host : make_figure2().hosts) {
    real_hosts.insert(host.hostname);
  }
  EXPECT_NE(sim.extract_data_plane().restricted_to(real_hosts),
            simulated_data_plane(make_figure2()));
}

}  // namespace
}  // namespace confmask
