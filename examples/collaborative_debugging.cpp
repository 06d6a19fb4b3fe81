// The §2.3 case study: collaborative debugging of a QoS misconfiguration.
//
// FatTree-04, users report high delay/loss from h_A (on e3-1) to h_B (on
// e1-0). Root cause: core router c2 marks traffic from agg3-1 as
// LOW-priority (should be high), and agg1-1's low-priority queue towards
// e1-0 is congested. Fixing this remotely requires the helper to see
//  (a) the QoS lines on c2 and agg1-1, and
//  (b) that the trace path h_A -> h_B actually crosses c2 and agg1-1
//      (the Waypoint property).
//
// The example anonymizes the network with ConfMask and with NetHide and
// checks whether the root cause survives each. ConfMask preserves every
// path exactly and passes unknown (QoS) lines through verbatim; NetHide
// reroutes flows through its virtual topology, hiding the faulty hop —
// exactly the failure the paper's Figure 1 illustrates.
#include <algorithm>
#include <cstdio>

#include "src/config/emit.hpp"
#include "src/core/confmask.hpp"
#include "src/core/metrics.hpp"
#include "src/netgen/networks.hpp"
#include "src/nethide/nethide.hpp"
#include "src/routing/simulation.hpp"

namespace {

using namespace confmask;

/// Installs the paper's Listing 1 + Listing 2 misconfiguration.
void install_qos_misconfiguration(ConfigSet& configs) {
  // Listing 1: c2 marks inbound traffic from agg3-1 — but with the WRONG
  // (low-priority) DSCP class.
  auto* c2 = configs.find_router("c2");
  for (auto& iface : c2->interfaces) {
    if (iface.description == "to-agg3-1") {
      iface.extra_lines.push_back(
          "traffic-policy mark_agg31_priority inbound");
    }
  }
  c2->extra_lines.push_back("traffic classifier is_mgmt_traffic");
  c2->extra_lines.push_back("if-match any");
  c2->extra_lines.push_back("traffic behavior remark_mgmt_dscp");
  c2->extra_lines.push_back("remark dscp af11");  // BUG: should be af31
  c2->extra_lines.push_back("traffic policy mark_agg31_priority");
  c2->extra_lines.push_back("classifier is_mgmt_traffic behavior remark_mgmt_dscp");

  // Listing 2: agg1-1 trusts DSCP and starves the low-priority queue.
  auto* agg11 = configs.find_router("agg1-1");
  for (auto& iface : agg11->interfaces) {
    if (iface.description == "to-e1-0") {
      iface.extra_lines.push_back("trust dscp");
      iface.extra_lines.push_back("qos wrr 1 to 7");
      iface.extra_lines.push_back("qos queue 2 wrr weight 10");
      iface.extra_lines.push_back("qos queue 7 wrr weight 90");
    }
  }
}

/// True if the flow h_A -> h_B has a path crossing both c2 and agg1-1.
bool root_cause_visible(const DataPlane& dp) {
  const auto it = dp.flows.find({"h3-1-0", "h1-0-0"});
  if (it == dp.flows.end()) return false;
  for (const auto& path : it->second) {
    const bool via_c2 =
        std::find(path.begin(), path.end(), "c2") != path.end();
    const bool via_agg11 =
        std::find(path.begin(), path.end(), "agg1-1") != path.end();
    if (via_c2 && via_agg11) return true;
  }
  return false;
}

bool qos_lines_present(const ConfigSet& configs) {
  const auto* c2 = configs.find_router("c2");
  if (c2 == nullptr) return false;
  const auto text = emit_router(*c2);
  return text.find("remark dscp af11") != std::string::npos;
}

}  // namespace

int main() {
  ConfigSet network = make_fattree04();
  install_qos_misconfiguration(network);

  std::printf("case study: h_A(h3-1-0) -> h_B(h1-0-0) degraded; root cause "
              "on c2 (wrong DSCP) + agg1-1 (starved queue)\n\n");

  // Sanity: in the original network the engineer can see everything.
  {
    const Simulation sim(network);
    const auto dp = sim.extract_data_plane();
    std::printf("original network : root cause on trace path: %s\n",
                root_cause_visible(dp) ? "visible" : "HIDDEN");
  }

  // ConfMask.
  ConfMaskOptions options;
  options.seed = 7;
  const auto confmask_result = run_confmask(network, options);
  const bool cm_path =
      root_cause_visible(simulated_data_plane(confmask_result.anonymized));
  const bool cm_lines = qos_lines_present(confmask_result.anonymized);
  std::printf("ConfMask         : trace path %s, QoS config %s  => %s\n",
              cm_path ? "visible" : "HIDDEN",
              cm_lines ? "present" : "STRIPPED",
              cm_path && cm_lines ? "diagnosable" : "NOT diagnosable");

  // NetHide.
  NetHideOptions nethide_options;
  nethide_options.k_r = 10;  // the fat tree is 6-degree-anonymous already
  const auto nethide_result = run_nethide(network, nethide_options);
  const bool nh_path = root_cause_visible(nethide_result.data_plane);
  const bool nh_lines = qos_lines_present(nethide_result.obfuscated);
  std::printf("NetHide          : trace path %s, QoS config %s  => %s\n",
              nh_path ? "visible" : "HIDDEN",
              nh_lines ? "present" : "STRIPPED",
              nh_path && nh_lines ? "diagnosable" : "NOT diagnosable");

  std::printf("\nConfMask functional equivalence verified: %s\n",
              confmask_result.functionally_equivalent ? "yes" : "no");
  std::printf("\n--- QoS excerpt of anonymized c2 (shared with the helper) ---\n");
  const auto text = emit_router(*confmask_result.anonymized.find_router("c2"));
  // Print only the passthrough QoS lines.
  for (const char* needle :
       {"traffic classifier is_mgmt_traffic", "remark dscp af11",
        "traffic policy mark_agg31_priority"}) {
    if (text.find(needle) != std::string::npos) {
      std::printf("  %s\n", needle);
    }
  }
  return cm_path && cm_lines ? 0 : 1;
}
