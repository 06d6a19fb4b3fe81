// Network-scale obfuscation by fake-router addition — the paper's §9
// extension ("Network scale obfuscation"), built on the observation that
// the functional-equivalence proof never requires the router set to stay
// fixed, only that no existing router is removed.
//
// Fake routers are generated to blend in: hostnames continue the
// network's naming pattern, configurations copy a template router's
// protocols and boilerplate, each fake router attaches to random routers
// of one AS, and (optionally) terminates a fake host so it carries
// traffic and survives the zero-traffic de-anonymization attack.
//
// Route safety: every link of a fake router x carries OSPF cost
// max(1, ceil(D/2)) with D = max original IGP distance over ORDERED pairs
// of x's neighbors (read from the simulation of the originals; per-side
// link costs make D(a→b) and D(b→a) differ), so a path THROUGH x is
// never strictly shorter than an original path in either direction; the
// equal-cost paths that can appear are rejected by Algorithm 1 like any
// other fake-link path (real-router FIB entries towards x cross a fake
// link). Run this BEFORE Step 1 so the k-degree anonymization also covers
// the fake routers' degrees.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "src/config/model.hpp"
#include "src/util/prefix_allocator.hpp"
#include "src/util/rng.hpp"

namespace confmask {

class Simulation;

struct NodeAdditionOptions {
  int fake_routers = 0;       ///< 0 disables the extension
  int links_per_fake = 2;     ///< attachment links per fake router
  bool attach_fake_host = true;
};

struct NodeAdditionOutcome {
  std::vector<std::string> fake_routers;
  std::vector<std::string> fake_hosts;
  std::vector<std::pair<std::string, std::string>> links;
};

/// `original` must simulate the original network (the configs before any
/// fake router): its routers are the templates and attachment points, and
/// its IGP distances price the fake links.
NodeAdditionOutcome add_fake_routers(ConfigSet& configs,
                                     const Simulation& original,
                                     const NodeAdditionOptions& options,
                                     Rng& rng, PrefixAllocator& allocator);

}  // namespace confmask
