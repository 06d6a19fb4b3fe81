// k-degree graph anonymization (Liu & Terzi, SIGMOD'08), restricted to the
// edge-addition-only variant ConfMask adopts.
//
// The algorithm has two stages:
//  1. Degree-sequence anonymization — an O(n·k) dynamic program over the
//     descending-sorted degree sequence that finds the cost-minimal
//     partition into groups of size in [k, 2k-1], raising every degree in a
//     group to the group maximum (degrees may only increase because we may
//     only ADD edges — ConfMask's topology-preservation requirement).
//  2. Realization — greedily add edges between deficient node pairs
//     (largest residual deficiency first, never duplicating an edge) until
//     every node reaches its target degree. When the residual sequence is
//     unrealizable (parity or adjacency dead ends), the probing fallback
//     adds a relieving edge to a random non-adjacent node and re-runs the
//     dynamic program on the updated degrees; this always terminates and
//     the result is verified k-anonymous.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/graph.hpp"
#include "src/util/rng.hpp"

namespace confmask {

/// Typed failure of k-degree anonymization, carrying the parameters the
/// guarded pipeline runner needs to pick a fallback rung (reseed for
/// non-convergence, relax k for infeasibility). Derives from
/// std::runtime_error for backward compatibility with pre-taxonomy catchers.
class KDegreeError : public std::runtime_error {
 public:
  enum class Kind {
    kInfeasible,     ///< no k-anonymous supergraph exists for these params
    kSaturated,      ///< a deficient node is already adjacent to all others
    kNonConvergent,  ///< probing fallback exceeded its round budget
  };

  KDegreeError(Kind kind, int nodes, int k, int probe_rounds,
               const std::string& message);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] int nodes() const { return nodes_; }
  [[nodiscard]] int k() const { return k_; }
  [[nodiscard]] int probe_rounds() const { return probe_rounds_; }

 private:
  Kind kind_;
  int nodes_;
  int k_;
  int probe_rounds_;
};

/// Stage 1: minimal-cost k-anonymous target degree sequence with
/// target[i] >= degrees[i] for all i. Input order is preserved.
[[nodiscard]] std::vector<int> anonymize_degree_sequence(
    const std::vector<int>& degrees, int k);

struct KDegreeAnonymizationResult {
  /// Edges added to the input graph (u < v), in addition order.
  std::vector<std::pair<int, int>> added_edges;
  /// Dynamic-program re-runs the probing fallback needed (0 = first try).
  int probe_rounds = 0;
};

/// Full pipeline: returns the fake edges that make `graph` k-degree
/// anonymous. The input graph is not modified. Throws KDegreeError if no
/// simple supergraph can be found (possible only for k > node count) or the
/// probing fallback exhausts its round budget.
[[nodiscard]] KDegreeAnonymizationResult k_degree_anonymize(
    const Graph& graph, int k, Rng& rng);

}  // namespace confmask
