// Direct DataPlane contract tests: diff() determinism (the divergence
// triples feed --diagnostics-json, which must be byte-stable across worker
// counts and insertion orders) and equals_restricted() (the verification
// gate's fast path, which must agree with restricted_to() == original in
// both failure directions).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/routing/dataplane.hpp"

namespace confmask {
namespace {

Path path(std::initializer_list<const char*> devices) {
  Path p;
  for (const char* device : devices) p.emplace_back(device);
  return p;
}

TEST(DataPlaneDiff, MissingFlowHopsAreSortedAndDeduped) {
  DataPlane lhs;
  // Three ECMP paths with unsorted, duplicated first hops: (r9, r1, r9).
  lhs.flows[{"h1", "h2"}] = {path({"h1", "r9", "r2", "h2"}),
                             path({"h1", "r1", "r2", "h2"}),
                             path({"h1", "r9", "r3", "h2"})};
  const DataPlane rhs;  // flow missing entirely on the rhs

  const auto entries = lhs.diff(rhs);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].source, "h1");
  EXPECT_EQ(entries[0].destination, "h2");
  EXPECT_TRUE(entries[0].router.empty());
  EXPECT_EQ(entries[0].lhs_next_hops, (std::vector<std::string>{"r1", "r9"}));
  EXPECT_TRUE(entries[0].rhs_next_hops.empty());

  // Mirrored direction: the present side's hops land in rhs_next_hops.
  const auto mirrored = rhs.diff(lhs);
  ASSERT_EQ(mirrored.size(), 1u);
  EXPECT_TRUE(mirrored[0].lhs_next_hops.empty());
  EXPECT_EQ(mirrored[0].rhs_next_hops,
            (std::vector<std::string>{"r1", "r9"}));
}

TEST(DataPlaneDiff, EntriesAreOrderedByFlowThenDevice) {
  DataPlane lhs, rhs;
  // Insert flows in reverse order; the report must come out in flow order
  // regardless (map iteration), with per-flow devices in name order.
  lhs.flows[{"h3", "h4"}] = {path({"h3", "r1", "h4"})};
  lhs.flows[{"h1", "h2"}] = {path({"h1", "r5", "r6", "h2"})};
  rhs.flows[{"h1", "h2"}] = {path({"h1", "r7", "r6", "h2"})};

  const auto entries = lhs.diff(rhs);
  ASSERT_EQ(entries.size(), 4u);
  // Flow (h1,h2) differs at h1 (r5 vs r7) and at each diverging router,
  // in device-name order; the missing flow (h3,h4) is reported after.
  EXPECT_EQ(entries[0].source, "h1");
  EXPECT_EQ(entries[0].router, "h1");
  EXPECT_EQ(entries[0].lhs_next_hops, (std::vector<std::string>{"r5"}));
  EXPECT_EQ(entries[0].rhs_next_hops, (std::vector<std::string>{"r7"}));
  EXPECT_EQ(entries[1].router, "r5");
  EXPECT_EQ(entries[2].router, "r7");
  EXPECT_EQ(entries[3].source, "h3");
  EXPECT_TRUE(entries[3].router.empty());
}

TEST(DataPlaneDiff, RepeatedCallsAreByteIdentical) {
  DataPlane lhs, rhs;
  lhs.flows[{"h2", "h1"}] = {path({"h2", "r2", "h1"})};
  lhs.flows[{"h1", "h2"}] = {path({"h1", "r1", "h2"}),
                             path({"h1", "r2", "h2"})};
  rhs.flows[{"h1", "h2"}] = {path({"h1", "r1", "h2"})};

  const auto first = lhs.diff(rhs, 16);
  const auto second = lhs.diff(rhs, 16);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], second[i]) << i;
  }
}

TEST(DataPlaneDiff, LimitTruncatesDeterministically) {
  DataPlane lhs;
  for (int i = 0; i < 8; ++i) {
    std::string host = "h";
    host += std::to_string(i);
    lhs.flows[{host, "hx"}] = {Path{host, "r1", "hx"}};
  }
  const DataPlane rhs;
  EXPECT_EQ(lhs.diff(rhs, 3).size(), 3u);
  EXPECT_EQ(lhs.diff(rhs, 0).size(), 0u);
  // The truncated report is a prefix of the full one.
  const auto full = lhs.diff(rhs, 100);
  const auto truncated = lhs.diff(rhs, 3);
  for (std::size_t i = 0; i < truncated.size(); ++i) {
    EXPECT_EQ(truncated[i], full[i]) << i;
  }
}

/// equals_restricted must agree with its definitional spelling.
void expect_consistent(const DataPlane& anonymized, const DataPlane& original,
                       const std::set<std::string>& hosts, bool expected,
                       const std::string& label) {
  EXPECT_EQ(anonymized.equals_restricted(original, hosts), expected) << label;
  EXPECT_EQ(anonymized.restricted_to(hosts) == original, expected)
      << label << " (restricted_to cross-check)";
}

TEST(DataPlaneEqualsRestricted, IgnoresFakeHostFlows) {
  DataPlane original;
  original.flows[{"h1", "h2"}] = {path({"h1", "r1", "h2"})};

  DataPlane anonymized = original;
  anonymized.flows[{"f1", "h1"}] = {path({"f1", "r9", "h1"})};
  anonymized.flows[{"h2", "f1"}] = {path({"h2", "r9", "f1"})};

  expect_consistent(anonymized, original, {"h1", "h2"}, true, "fake flows");
}

TEST(DataPlaneEqualsRestricted, RestrictedHoldsButFullFails) {
  // The restricted comparison passes while whole-plane equality fails —
  // exactly the Appendix-A situation fake hosts create.
  DataPlane original;
  original.flows[{"h1", "h2"}] = {path({"h1", "r1", "h2"})};
  DataPlane anonymized = original;
  anonymized.flows[{"f1", "h2"}] = {path({"f1", "r2", "h2"})};

  EXPECT_TRUE(anonymized.equals_restricted(original, {"h1", "h2"}));
  EXPECT_FALSE(anonymized == original);
}

TEST(DataPlaneEqualsRestricted, FullHoldsButRestrictedFails) {
  // Whole-plane equality holds, yet the restricted comparison fails:
  // `original` retains a flow whose endpoints fall outside the restriction
  // set, so restricted_to(hosts) can never reproduce it.
  DataPlane original;
  original.flows[{"h1", "h2"}] = {path({"h1", "r1", "h2"})};
  original.flows[{"h3", "h1"}] = {path({"h3", "r2", "h1"})};
  const DataPlane anonymized = original;

  EXPECT_TRUE(anonymized == original);
  expect_consistent(anonymized, original, {"h1", "h2"}, false,
                    "original keeps an out-of-set flow");
}

TEST(DataPlaneEqualsRestricted, DetectsMissingAndDivergentFlows) {
  DataPlane original;
  original.flows[{"h1", "h2"}] = {path({"h1", "r1", "h2"})};
  original.flows[{"h2", "h1"}] = {path({"h2", "r1", "h1"})};
  const std::set<std::string> hosts{"h1", "h2"};

  DataPlane missing = original;
  missing.flows.erase({"h2", "h1"});
  expect_consistent(missing, original, hosts, false, "missing flow");

  DataPlane divergent = original;
  divergent.flows[{"h1", "h2"}] = {path({"h1", "r2", "h2"})};
  expect_consistent(divergent, original, hosts, false, "divergent paths");

  // A path-multiplicity difference is a difference.
  DataPlane extra_path = original;
  extra_path.flows[{"h1", "h2"}].push_back(path({"h1", "r3", "h2"}));
  expect_consistent(extra_path, original, hosts, false, "extra ECMP path");
}

TEST(DataPlaneEqualsRestricted, EmptyCases) {
  const DataPlane empty;
  DataPlane original;
  expect_consistent(empty, original, {}, true, "both empty");
  expect_consistent(empty, original, {"h1"}, true, "empty with hosts");
  original.flows[{"h1", "h2"}] = {path({"h1", "r1", "h2"})};
  expect_consistent(empty, original, {"h1", "h2"}, false,
                    "anonymized empty, original not");
}

}  // namespace
}  // namespace confmask
