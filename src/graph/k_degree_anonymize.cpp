#include "src/graph/k_degree_anonymize.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "src/util/fault_points.hpp"

namespace confmask {

namespace {

constexpr long kInfinity = std::numeric_limits<long>::max() / 4;

}  // namespace

KDegreeError::KDegreeError(Kind kind, int nodes, int k, int probe_rounds,
                           const std::string& message)
    : std::runtime_error(message + " (n=" + std::to_string(nodes) +
                         ", k=" + std::to_string(k) +
                         ", probe_rounds=" + std::to_string(probe_rounds) +
                         ")"),
      kind_(kind),
      nodes_(nodes),
      k_(k),
      probe_rounds_(probe_rounds) {}

std::vector<int> anonymize_degree_sequence(const std::vector<int>& degrees,
                                           int k) {
  const std::size_t n = degrees.size();
  if (n == 0) return {};
  const std::size_t group = std::min<std::size_t>(
      static_cast<std::size_t>(std::max(k, 1)), n);

  // Sort descending, remembering original positions.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return degrees[a] > degrees[b];
  });
  std::vector<int> sorted(n);
  for (std::size_t i = 0; i < n; ++i) sorted[i] = degrees[order[i]];
  // Prefix sums make a group's cost O(1): raising sorted[i..j] (0-based,
  // descending) to sorted[i] costs (j-i+1)·sorted[i] − Σ sorted[i..j].
  std::vector<long> prefix(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) prefix[i + 1] = prefix[i] + sorted[i];
  const auto group_cost = [&](std::size_t i, std::size_t j) {
    return static_cast<long>(j - i + 1) * sorted[i] -
           (prefix[j + 1] - prefix[i]);
  };

  // DP over prefixes: best[j] = minimal cost anonymizing sorted[0..j].
  std::vector<long> best(n, kInfinity);
  std::vector<std::size_t> cut(n, 0);  // start index of the last group
  for (std::size_t j = 0; j < n; ++j) {
    if (j + 1 < group) continue;  // prefix too short for one group
    if (j + 1 < 2 * group) {
      best[j] = group_cost(0, j);
      cut[j] = 0;
      continue;
    }
    // Last group is sorted[t..j] with group <= j - t + 1 <= 2*group - 1.
    const std::size_t t_lo = j + 2 >= 2 * group ? j + 2 - 2 * group : 0;
    const std::size_t t_hi = j + 1 - group;
    for (std::size_t t = t_lo; t <= t_hi; ++t) {
      if (t == 0) {
        // Whole prefix in one group is only allowed via the branch above;
        // here t >= 1 means sorted[0..t-1] is a solved subproblem.
        continue;
      }
      if (best[t - 1] >= kInfinity) continue;
      const long candidate = best[t - 1] + group_cost(t, j);
      if (candidate < best[j]) {
        best[j] = candidate;
        cut[j] = t;
      }
    }
    // Also allow one big group when legal (j + 1 <= 2*group - 1 handled
    // above; for larger prefixes a single group is never optimal for the
    // DP to require, but keep correctness when all degrees are equal).
    const long whole = group_cost(0, j);
    if (whole < best[j]) {
      best[j] = whole;
      cut[j] = 0;
    }
  }
  if (best[n - 1] >= kInfinity) {
    throw KDegreeError(KDegreeError::Kind::kInfeasible, static_cast<int>(n),
                       k, 0, "degree sequence anonymization infeasible");
  }

  // Reconstruct groups and assign targets.
  std::vector<int> target_sorted(n, 0);
  std::size_t j = n - 1;
  for (;;) {
    const std::size_t t = cut[j];
    for (std::size_t l = t; l <= j; ++l) target_sorted[l] = sorted[t];
    if (t == 0) break;
    j = t - 1;
  }

  std::vector<int> targets(n, 0);
  for (std::size_t i = 0; i < n; ++i) targets[order[i]] = target_sorted[i];
  return targets;
}

KDegreeAnonymizationResult k_degree_anonymize(const Graph& graph, int k,
                                              Rng& rng) {
  const int n = graph.node_count();
  if (n == 0) return {};
  const int k_eff = std::min(k, n);
  if (faults::fire(faults::kKDegreeInfeasible)) {
    throw KDegreeError(KDegreeError::Kind::kInfeasible, n, k_eff, 0,
                       "k-degree anonymization infeasible (injected)");
  }

  Graph work = graph;
  KDegreeAnonymizationResult result;

  constexpr int kMaxProbeRounds = 500;
  for (int round = 0; round <= kMaxProbeRounds; ++round) {
    const auto degrees = work.degrees();
    const auto targets = anonymize_degree_sequence(degrees, k_eff);
    std::vector<int> deficiency(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) {
      deficiency[static_cast<std::size_t>(v)] =
          targets[static_cast<std::size_t>(v)] -
          degrees[static_cast<std::size_t>(v)];
    }

    // Greedy pairing: repeatedly connect the two most deficient
    // non-adjacent nodes. Random tie-breaking keeps the fake edge set
    // non-canonical: every step shuffles all n nodes (those RNG draws are
    // the seeded contract), then a stable counting sort ranks the
    // deficient ones, into buffers reused across steps.
    std::vector<int> shuffled(static_cast<std::size_t>(n));
    std::vector<int> order;         // deficient nodes, most deficient first
    std::vector<std::size_t> slot;  // counting-sort bucket starts
    const auto most_deficient = [&]() {
      std::iota(shuffled.begin(), shuffled.end(), 0);
      rng.shuffle(shuffled);
      const int top = *std::max_element(deficiency.begin(), deficiency.end());
      // Bucket of deficiency d > 0 is top − d: the largest comes first.
      const auto bucket = [&](int v) {
        return static_cast<std::size_t>(
            top - deficiency[static_cast<std::size_t>(v)]);
      };
      slot.assign(static_cast<std::size_t>(top) + 1, 0);
      for (const int v : shuffled) {
        if (deficiency[static_cast<std::size_t>(v)] > 0) ++slot[bucket(v) + 1];
      }
      for (std::size_t b = 1; b < slot.size(); ++b) slot[b] += slot[b - 1];
      order.resize(slot.back());
      for (const int v : shuffled) {
        if (deficiency[static_cast<std::size_t>(v)] > 0) {
          order[slot[bucket(v)]++] = v;
        }
      }
    };

    bool stuck = false;
    int stuck_node = -1;
    for (;;) {
      most_deficient();
      if (order.empty()) return result;  // everything satisfied
      const int u = order[0];
      int partner = -1;
      for (std::size_t i = 1; i < order.size(); ++i) {
        const int v = order[i];
        if (!work.has_edge(u, v)) {
          partner = v;
          break;
        }
      }
      if (partner < 0) {
        stuck = true;
        stuck_node = u;
        break;
      }
      work.add_edge(u, partner);
      result.added_edges.emplace_back(std::min(u, partner),
                                      std::max(u, partner));
      --deficiency[static_cast<std::size_t>(u)];
      --deficiency[static_cast<std::size_t>(partner)];
    }

    if (!stuck) return result;

    // Probing fallback: relieve the stuck node with an edge to any random
    // non-adjacent node, then re-run the dynamic program on new degrees.
    std::vector<int> candidates;
    for (int v = 0; v < n; ++v) {
      if (v != stuck_node && !work.has_edge(stuck_node, v)) {
        candidates.push_back(v);
      }
    }
    if (candidates.empty()) {
      throw KDegreeError(
          KDegreeError::Kind::kSaturated, n, k_eff, result.probe_rounds,
          "k-degree anonymization: node already adjacent to all others");
    }
    const int v = rng.pick(candidates);
    work.add_edge(stuck_node, v);
    result.added_edges.emplace_back(std::min(stuck_node, v),
                                    std::max(stuck_node, v));
    ++result.probe_rounds;
  }
  throw KDegreeError(KDegreeError::Kind::kNonConvergent, n, k_eff,
                     kMaxProbeRounds,
                     "k-degree anonymization did not converge");
}

}  // namespace confmask
