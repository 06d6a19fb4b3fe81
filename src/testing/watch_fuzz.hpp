// Watch-mode differential fuzzing: patched re-anonymization checked
// byte-for-byte against from-scratch runs over random edit sequences.
//
// One watch case, from one seed:
//   1. generate a small scale-family network (netgen/scale_families,
//      family = seed % 3), decorate it with random filters/statics/ACLs
//      and canonicalize — this is the "published" base bundle;
//   2. cold-run the guarded pipeline over the base WITH watch capture and
//      re-base the captured stage state into a PatchContext (exactly what
//      the daemon does after publishing an artifact);
//   3. apply a random 1..max_edits edit sequence — biased ~70% toward the
//      filter-only class the patcher can exploit (prefix-list entry
//      add/remove/flip, distribute-list bind/unbind, ACL edits) and ~30%
//      toward structural edits that must force the fail-closed fallback
//      (cost changes, renames, device add/remove);
//   4. round-trip the edit through the confmask-diff/1 wire format:
//      apply_bundle_diff(base, render_bundle_diff(base, edited)) must
//      reproduce the edited canonical bundle byte-identically;
//   5. run the edited bundle twice — cold, and patched against the base's
//      context — and assert the runs agree exactly: same ok/fail verdict,
//      and byte-identical anonymized bundles when they succeed.
// k_h alternates between 1 and 2 with the seed, so half the cases run
// Algorithm 2 and their patched runs may replay it.
// Any disagreement is a finding; when `repro_dir` is set the base bundle,
// edited bundle and diff script are dumped with a README naming the seed
// and the failing check.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/config/model.hpp"
#include "src/core/confmask.hpp"
#include "src/util/rng.hpp"

namespace confmask {

struct WatchFuzzOptions {
  int min_routers = 8;   ///< scale-family size range per case
  int max_routers = 20;
  int max_edits = 5;     ///< edits per sequence, uniform in [1, max_edits]
  /// Pipeline knobs for both runs of a case. Small on purpose: the fuzz
  /// property is patched ≡ cold, which holds (or breaks) identically at
  /// k_r=2 and k_r=6 — the smaller run just covers more seeds per budget.
  /// Each case overrides k_h with 1 + seed % 2: k_h = 1 adds no fake
  /// hosts, k_h = 2 runs (or replays) Algorithm 2.
  ConfMaskOptions pipeline = [] {
    ConfMaskOptions options;
    options.k_r = 2;
    return options;
  }();
  /// When non-empty, failing cases are dumped under
  /// `<repro_dir>/watch-seed-<seed>/`.
  std::string repro_dir;
};

/// One confirmed divergence. `check` names the broken invariant:
/// "diff_roundtrip" (wire format failed to reproduce the edited bundle),
/// "verdict" (patched and cold runs disagreed on ok/fail), "bytes"
/// (both succeeded with different anonymized bundles).
struct WatchFuzzFinding {
  std::uint64_t seed = 0;
  std::string check;
  std::string detail;
  std::string repro_path;  ///< artifact directory, if written
};

struct WatchFuzzResult {
  std::uint64_t seed = 0;
  bool ok = true;
  /// The base run failed to verify, so there was no context to patch
  /// against; the case proves nothing and is skipped (not a failure).
  bool base_skip = false;
  int edits = 0;
  bool structural = false;   ///< the sequence contained a structural edit
  int k_h = 1;               ///< the case's fake hosts per real host
  int patched_stages = 0;    ///< stages the patched run actually reused
  /// The patched run replayed Algorithm 2 from the base's edit log.
  bool replayed = false;
  /// The patched run replayed Algorithm 1 from the base's filters.
  bool equivalence_replayed = false;
  std::optional<WatchFuzzFinding> finding;
};

/// Runs the full watch check ladder for one seed.
[[nodiscard]] WatchFuzzResult run_watch_fuzz_case(
    std::uint64_t seed, const WatchFuzzOptions& options = {});

struct WatchFuzzStats {
  int cases = 0;
  int failures = 0;
  int base_skips = 0;
  /// Cases where the patched run reused at least one stage — the corpus
  /// self-check that the fuzzer is exercising the patch path at all, not
  /// just falling back everywhere.
  int patched_cases = 0;
  /// Cases whose patched run replayed Algorithm 2 — the self-check that
  /// the replay path is exercised at all.
  int replayed_cases = 0;
  /// Cases whose patched run replayed Algorithm 1 — the same self-check
  /// for that path.
  int equivalence_replayed_cases = 0;
  std::vector<WatchFuzzFinding> findings;
};

/// Runs cases for seeds [start_seed, start_seed + cases). A positive
/// `budget_seconds` stops early (after the current case) once exceeded.
[[nodiscard]] WatchFuzzStats run_watch_fuzz_corpus(
    std::uint64_t start_seed, int cases, const WatchFuzzOptions& options,
    double budget_seconds = 0.0);

/// The random edit stream (exposed for tests): applies `edits` random
/// edits to `configs` in place and returns one human-readable description
/// per edit. Sets *structural when any edit fell outside the filter-only
/// class the patcher can reuse across.
std::vector<std::string> apply_random_edits(ConfigSet& configs, Rng& rng,
                                            int edits, bool* structural);

}  // namespace confmask
