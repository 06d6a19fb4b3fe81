#include "src/config/diff.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "src/config/emit.hpp"
#include "src/config/parse.hpp"

namespace confmask {
namespace {

// ---------------------------------------------------------------------------
// Structural comparison. A device edit is filter-only iff the device with
// its whole filter surface STRIPPED compares equal in both bundles:
// everything except prefix lists, distribute lists, BGP per-neighbor
// prefix-list bindings, ACLs, access-group bindings and passthrough extra
// lines must be untouched. Comparison is field-wise model equality (a new
// structural field shows up in the defaulted operator== and automatically
// classifies as structural here); it is strictly finer than comparing
// emissions, so any miss errs toward "structural" — the fail-closed
// direction.

/// With `keep_acls` the packet-ACL surface (access lists and interface
/// access-group bindings) survives the strip: comparing those emissions on
/// a filter-only pair tells whether the ACL surface itself moved.
RouterConfig stripped_router(const RouterConfig& router,
                             bool keep_acls = false) {
  RouterConfig out = router;
  out.prefix_lists.clear();
  if (!keep_acls) out.access_lists.clear();
  out.extra_lines.clear();
  for (InterfaceConfig& iface : out.interfaces) {
    if (!keep_acls) iface.access_group_in.reset();
    iface.extra_lines.clear();
  }
  if (out.ospf) {
    out.ospf->distribute_lists.clear();
    out.ospf->extra_lines.clear();
  }
  if (out.rip) {
    out.rip->distribute_lists.clear();
    out.rip->extra_lines.clear();
  }
  if (out.bgp) {
    out.bgp->extra_lines.clear();
    for (BgpNeighbor& neighbor : out.bgp->neighbors) {
      neighbor.prefix_lists_in.clear();
    }
  }
  return out;
}

HostConfig stripped_host(const HostConfig& host) {
  HostConfig out = host;
  out.extra_lines.clear();
  return out;
}

// ---------------------------------------------------------------------------
// Dirty-set computation.

bool entries_equal(const PrefixListEntry& a, const PrefixListEntry& b) {
  return a == b;
}

// ---------------------------------------------------------------------------
// Canonical order. The diff runs on every watch cycle, over bundles that
// need not be hostname-sorted, so it walks canonical_order()'s pointer
// views instead of sorting copies of both sides.

/// Merge-walks two hostname-sorted device sequences: `removed` for devices
/// only in `base`, `added` for devices only in `next`, `matched` for pairs.
/// Linear in the roster sizes — this matching is the diff's hot path (it
/// runs per stage per watch cycle), where per-device find_router lookups
/// would be quadratic.
template <typename Device, typename Removed, typename Added, typename Matched>
void merge_devices(const std::vector<const Device*>& base,
                   const std::vector<const Device*>& next, Removed&& removed,
                   Added&& added, Matched&& matched) {
  std::size_t bi = 0;
  std::size_t ni = 0;
  while (bi < base.size() && ni < next.size()) {
    const int cmp = base[bi]->hostname.compare(next[ni]->hostname);
    if (cmp < 0) {
      removed(*base[bi++]);
    } else if (cmp > 0) {
      added(*next[ni++]);
    } else {
      matched(*base[bi++], *next[ni++]);
    }
  }
  while (bi < base.size()) removed(*base[bi++]);
  while (ni < next.size()) added(*next[ni++]);
}

/// The first device named `name` in a hostname-sorted view (what
/// find_router / find_host return on the canonicalized bundle), or null.
template <typename Device>
const Device* find_sorted(const std::vector<const Device*>& devices,
                          const std::string& name) {
  const auto it = std::lower_bound(
      devices.begin(), devices.end(), name,
      [](const Device* device, const std::string& key) {
        return device->hostname < key;
      });
  return it != devices.end() && (*it)->hostname == name ? *it : nullptr;
}

/// Widened match region of one entry: every candidate prefix the entry can
/// match lies inside W(e). An entry matches candidates whose network falls
/// in `prefix` and whose length is in [ge-or-length, le-or-length], so
/// widening the length to min(length, ge) covers candidates shorter than
/// the entry's own prefix.
Ipv4Prefix widened_region(const PrefixListEntry& entry) {
  int length = entry.prefix.length();
  if (entry.ge) {
    length = std::min(length, std::clamp(*entry.ge, 0, 32));
  }
  return Ipv4Prefix{entry.prefix.network(), length};
}

const Ipv4Prefix kEverything{Ipv4Address{0u}, 0};

/// Matches filters.cpp's terminal permit-all encoding (`permit 0.0.0.0/0
/// le 32`): a candidate-independent permit. `ge` must be absent/zero, else
/// the entry is not actually universal.
bool is_terminal_permit_all(const PrefixList& list) {
  if (list.entries.empty()) return false;
  const PrefixListEntry& last = list.entries.back();
  return last.permit && last.prefix == kEverything &&
         last.le.value_or(0) == 32 && last.ge.value_or(0) == 0;
}

/// Scope of a whole list coming into or out of force at a binding site.
/// With a terminal permit-all the list's decision differs from "no filter"
/// only on candidates some deny entry matches; without one the list also
/// denies everything unmatched, so the scope is the whole space.
void whole_list_scope(const PrefixList& list, std::vector<Ipv4Prefix>& out) {
  if (!is_terminal_permit_all(list)) {
    out.push_back(kEverything);
    return;
  }
  for (const PrefixListEntry& entry : list.entries) {
    if (!entry.permit) out.push_back(widened_region(entry));
  }
}

/// Scope of an in-place edit to a bound list. First-match-wins: strip the
/// longest common entry head and tail; only candidates whose first matching
/// entry lies in a middle region (of either version) can decide
/// differently, and each such candidate is inside that entry's W.
void changed_list_scope(const PrefixList& before, const PrefixList& after,
                        std::vector<Ipv4Prefix>& out) {
  const auto& a = before.entries;
  const auto& b = after.entries;
  std::size_t head = 0;
  while (head < a.size() && head < b.size() &&
         entries_equal(a[head], b[head])) {
    ++head;
  }
  std::size_t tail = 0;
  while (tail < a.size() - head && tail < b.size() - head &&
         entries_equal(a[a.size() - 1 - tail], b[b.size() - 1 - tail])) {
    ++tail;
  }
  for (std::size_t i = head; i < a.size() - tail; ++i) {
    out.push_back(widened_region(a[i]));
  }
  for (std::size_t i = head; i < b.size() - tail; ++i) {
    out.push_back(widened_region(b[i]));
  }
}

/// Binding sites of every prefix list on a router, as a multiset of
/// site tags per list name. The tag identifies WHERE the list is in force
/// (OSPF/RIP distribute-list per interface, BGP import per neighbor); the
/// engines deny a route when any bound list denies it, so multiplicity and
/// order beyond the multiset are irrelevant.
std::map<std::string, std::multiset<std::string>> binding_sites(
    const RouterConfig& router) {
  std::map<std::string, std::multiset<std::string>> sites;
  const auto add = [&](const std::string& list, std::string site) {
    sites[list].insert(std::move(site));
  };
  if (router.ospf) {
    for (const DistributeList& dl : router.ospf->distribute_lists) {
      add(dl.prefix_list, "ospf:" + dl.interface);
    }
  }
  if (router.rip) {
    for (const DistributeList& dl : router.rip->distribute_lists) {
      add(dl.prefix_list, "rip:" + dl.interface);
    }
  }
  if (router.bgp) {
    for (const BgpNeighbor& neighbor : router.bgp->neighbors) {
      for (const std::string& list : neighbor.prefix_lists_in) {
        add(list, "bgp:" + neighbor.address.str());
      }
    }
  }
  return sites;
}

/// Conservative dirty destinations for a filter-only router edit. A list's
/// edit matters only where it is bound; an unbound list (and any ACL,
/// access-group or extra-line change) cannot move a forwarding decision —
/// filters and ACL tables are re-indexed from the current configs on every
/// (re)build, and ACLs act on the data plane, not the FIB.
std::vector<Ipv4Prefix> router_dirty_set(const RouterConfig& before,
                                         const RouterConfig& after) {
  std::vector<Ipv4Prefix> dirty;
  const auto sites_before = binding_sites(before);
  const auto sites_after = binding_sites(after);
  std::map<std::string, const PrefixList*> lists_before;
  std::map<std::string, const PrefixList*> lists_after;
  for (const PrefixList& list : before.prefix_lists) {
    lists_before.emplace(list.name, &list);
  }
  for (const PrefixList& list : after.prefix_lists) {
    lists_after.emplace(list.name, &list);
  }

  std::set<std::string> names;
  for (const auto& [name, sites] : sites_before) names.insert(name);
  for (const auto& [name, sites] : sites_after) names.insert(name);
  for (const auto& [name, list] : lists_before) names.insert(name);
  for (const auto& [name, list] : lists_after) names.insert(name);

  static const std::multiset<std::string> kNoSites;
  for (const std::string& name : names) {
    const auto sb = sites_before.find(name);
    const auto sa = sites_after.find(name);
    const std::multiset<std::string>& before_sites =
        sb == sites_before.end() ? kNoSites : sb->second;
    const std::multiset<std::string>& after_sites =
        sa == sites_after.end() ? kNoSites : sa->second;
    const PrefixList* lb = nullptr;
    const PrefixList* la = nullptr;
    if (const auto it = lists_before.find(name); it != lists_before.end()) {
      lb = it->second;
    }
    if (const auto it = lists_after.find(name); it != lists_after.end()) {
      la = it->second;
    }

    if (before_sites != after_sites) {
      // The list came into or out of force somewhere. Scope = whichever
      // versions are (or were) bound; a bound-but-undefined list filters
      // nothing and contributes no scope.
      if (!before_sites.empty() && lb != nullptr) {
        whole_list_scope(*lb, dirty);
      }
      if (!after_sites.empty() && la != nullptr) {
        whole_list_scope(*la, dirty);
      }
      // Definition changes are subsumed: both whole-list scopes are in.
      continue;
    }
    if (before_sites.empty()) continue;  // unbound on both sides
    if (lb == nullptr && la == nullptr) continue;  // bound but undefined
    if (lb == nullptr || la == nullptr) {
      // Defined on one side only while bound: the filter appears or
      // disappears wholesale.
      whole_list_scope(lb != nullptr ? *lb : *la, dirty);
      continue;
    }
    changed_list_scope(*lb, *la, dirty);
  }
  return dirty;
}

/// Drops dirty prefixes covered by another dirty prefix (dedup only — the
/// delta machinery tolerates overlaps, this just keeps the sets small).
std::vector<Ipv4Prefix> compact(std::vector<Ipv4Prefix> dirty) {
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  std::vector<Ipv4Prefix> out;
  for (const Ipv4Prefix& prefix : dirty) {
    if (out.empty() || !out.back().contains(prefix)) {
      bool covered = false;
      for (const Ipv4Prefix& kept : out) {
        if (kept.contains(prefix)) {
          covered = true;
          break;
        }
      }
      if (!covered) out.push_back(prefix);
    }
  }
  return out;
}

}  // namespace

ConfigSetDiff diff_config_sets(const ConfigSet& base, const ConfigSet& next) {
  const CanonicalOrder canonical_base = canonical_order(base);
  const CanonicalOrder canonical_next = canonical_order(next);
  ConfigSetDiff diff;

  // Device-name sequences must match exactly for any reuse: simulation node
  // ids are assigned by config order, so an insertion, removal, rename or
  // kind change anywhere shifts ids and invalidates column aliasing.
  bool structural = false;
  const auto note = [&](std::string name, DeviceChangeKind kind,
                        bool filter_only, bool acls_changed,
                        std::vector<Ipv4Prefix> dirty) {
    if (!filter_only) structural = true;
    diff.devices.push_back(DeviceChange{std::move(name), kind, filter_only,
                                        acls_changed, std::move(dirty)});
  };

  if (canonical_base.routers.size() != canonical_next.routers.size() ||
      canonical_base.hosts.size() != canonical_next.hosts.size()) {
    structural = true;
  }

  // Removed/modified devices are reported in base order and additions
  // after them (per kind), matching the pre-merge-walk report shape.
  std::vector<const RouterConfig*> added_routers;
  merge_devices(
      canonical_base.routers, canonical_next.routers,
      [&](const RouterConfig& before) {
        note(before.hostname, DeviceChangeKind::kRemoved, false, false, {});
      },
      [&](const RouterConfig& after) { added_routers.push_back(&after); },
      [&](const RouterConfig& before, const RouterConfig& after) {
        if (before == after) return;
        const bool filter_only =
            stripped_router(before) == stripped_router(after);
        // On a filter-only pair the stripped models agree, so keeping the
        // ACL surface in and comparing again isolates exactly that surface.
        const bool acls_changed =
            filter_only &&
            stripped_router(before, /*keep_acls=*/true) !=
                stripped_router(after, /*keep_acls=*/true);
        note(before.hostname, DeviceChangeKind::kModified, filter_only,
             acls_changed,
             filter_only ? compact(router_dirty_set(before, after))
                         : std::vector<Ipv4Prefix>{});
      });
  for (const RouterConfig* after : added_routers) {
    note(after->hostname, DeviceChangeKind::kAdded, false, false, {});
  }

  std::vector<const HostConfig*> added_hosts;
  merge_devices(
      canonical_base.hosts, canonical_next.hosts,
      [&](const HostConfig& before) {
        note(before.hostname, DeviceChangeKind::kRemoved, false, false, {});
      },
      [&](const HostConfig& after) { added_hosts.push_back(&after); },
      [&](const HostConfig& before, const HostConfig& after) {
        if (before == after) return;
        // Host extra lines are passthrough; everything else (address,
        // gateway, interface) feeds topology construction.
        const bool filter_only =
            stripped_host(before) == stripped_host(after);
        note(before.hostname, DeviceChangeKind::kModified, filter_only,
             false, {});
      });
  for (const HostConfig* after : added_hosts) {
    note(after->hostname, DeviceChangeKind::kAdded, false, false, {});
  }

  // A device that kept its name but moved position in the canonical order
  // (only possible via adds/removes, caught above) or switched kind
  // (router <-> host) must not alias: a name found in both kind tables on
  // different sides is already reported as removed+added by the walks
  // above, because each merge walk scans one kind table only.

  if (structural) {
    diff.klass = DiffClass::kStructural;
  } else if (diff.devices.empty()) {
    diff.klass = DiffClass::kIdentical;
  } else {
    diff.klass = DiffClass::kFilterOnly;
  }
  return diff;
}

std::string render_bundle_diff(const ConfigSet& base, const ConfigSet& next) {
  const CanonicalOrder canonical_base = canonical_order(base);
  const CanonicalOrder canonical_next = canonical_order(next);

  std::string out;
  out += kBundleDiffHeader;
  out += '\n';

  std::vector<std::string> deletions;
  for (const RouterConfig* router : canonical_base.routers) {
    if (find_sorted(canonical_next.routers, router->hostname) == nullptr) {
      deletions.push_back(router->hostname);
    }
  }
  for (const HostConfig* host : canonical_base.hosts) {
    if (find_sorted(canonical_next.hosts, host->hostname) == nullptr) {
      deletions.push_back(host->hostname);
    }
  }
  std::sort(deletions.begin(), deletions.end());
  for (const std::string& name : deletions) {
    out += "!<< delete ";
    out += name;
    out += '\n';
  }

  const auto emit_section = [&](const std::string& name,
                                const std::string& body) {
    out += kDeviceMarker;
    out += name;
    out += '\n';
    out += body;
  };
  for (const RouterConfig* router : canonical_next.routers) {
    const RouterConfig* before =
        find_sorted(canonical_base.routers, router->hostname);
    const std::string body = emit_router(*router);
    if (before == nullptr || emit_router(*before) != body) {
      emit_section(router->hostname, body);
    }
  }
  for (const HostConfig* host : canonical_next.hosts) {
    const HostConfig* before =
        find_sorted(canonical_base.hosts, host->hostname);
    const std::string body = emit_host(*host);
    if (before == nullptr || emit_host(*before) != body) {
      emit_section(host->hostname, body);
    }
  }
  return out;
}

ConfigSet apply_bundle_diff(const ConfigSet& base,
                            const std::string& diff_text) {
  constexpr std::string_view kDeleteDirective = "!<< delete ";

  std::vector<std::pair<std::string, std::size_t>> deletions;
  std::string fragment;
  bool saw_header = false;
  bool in_sections = false;

  std::size_t line_number = 0;
  std::size_t pos = 0;
  while (pos <= diff_text.size()) {
    const std::size_t eol = diff_text.find('\n', pos);
    const std::size_t end = eol == std::string::npos ? diff_text.size() : eol;
    if (pos == diff_text.size() && pos == end) break;
    ++line_number;
    std::string_view line(diff_text.data() + pos, end - pos);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    pos = end + 1;

    if (in_sections) {
      fragment.append(line);
      fragment.push_back('\n');
      continue;
    }
    if (line.empty()) continue;
    if (!saw_header) {
      if (line != kBundleDiffHeader) {
        throw ConfigParseError(line_number,
                               "expected bundle-diff header '" +
                                   std::string(kBundleDiffHeader) + "'");
      }
      saw_header = true;
      continue;
    }
    if (line.substr(0, kDeleteDirective.size()) == kDeleteDirective) {
      std::string name(line.substr(kDeleteDirective.size()));
      while (!name.empty() && (name.back() == ' ' || name.back() == '\t')) {
        name.pop_back();
      }
      if (name.empty()) {
        throw ConfigParseError(line_number, "delete directive without a name");
      }
      deletions.emplace_back(std::move(name), line_number);
      continue;
    }
    if (line.substr(0, kDeviceMarker.size()) == kDeviceMarker) {
      in_sections = true;
      fragment.append(line);
      fragment.push_back('\n');
      continue;
    }
    throw ConfigParseError(line_number,
                           "unexpected content before first device section");
  }
  if (!saw_header) {
    throw ConfigParseError(1, "expected bundle-diff header '" +
                                  std::string(kBundleDiffHeader) + "'");
  }

  ConfigSet patched = canonicalize(base);
  ConfigSet upserts;
  if (!fragment.empty()) {
    upserts = parse_config_set(fragment);
  }

  for (const auto& [name, line] : deletions) {
    if (upserts.find_router(name) != nullptr ||
        upserts.find_host(name) != nullptr) {
      throw ConfigParseError(
          line, "device '" + name + "' both deleted and re-defined");
    }
    const auto removed_router = std::erase_if(
        patched.routers,
        [&](const RouterConfig& r) { return r.hostname == name; });
    const auto removed_host = std::erase_if(
        patched.hosts, [&](const HostConfig& h) { return h.hostname == name; });
    if (removed_router + removed_host == 0) {
      throw ConfigParseError(line,
                             "delete of unknown device '" + name + "'");
    }
  }

  for (RouterConfig& router : upserts.routers) {
    std::erase_if(patched.routers, [&](const RouterConfig& r) {
      return r.hostname == router.hostname;
    });
    std::erase_if(patched.hosts, [&](const HostConfig& h) {
      return h.hostname == router.hostname;
    });
    patched.routers.push_back(std::move(router));
  }
  for (HostConfig& host : upserts.hosts) {
    std::erase_if(patched.routers, [&](const RouterConfig& r) {
      return r.hostname == host.hostname;
    });
    std::erase_if(patched.hosts, [&](const HostConfig& h) {
      return h.hostname == host.hostname;
    });
    patched.hosts.push_back(std::move(host));
  }
  return canonicalize(std::move(patched));
}

}  // namespace confmask
