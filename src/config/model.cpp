#include "src/config/model.hpp"

#include <algorithm>
#include <stdexcept>

namespace confmask {

bool PrefixListEntry::matches(const Ipv4Prefix& candidate) const {
  if (!prefix.contains(candidate.network())) return false;
  const int len = candidate.length();
  const int lo = ge.value_or(prefix.length());
  const int hi = le.value_or(ge ? 32 : prefix.length());
  return len >= lo && len <= hi;
}

bool PrefixList::permits(const Ipv4Prefix& candidate) const {
  for (const auto& entry : entries) {
    if (entry.matches(candidate)) return entry.permit;
  }
  return false;  // implicit deny
}

int PrefixList::next_seq() const {
  int max_seq = 0;
  for (const auto& entry : entries) max_seq = std::max(max_seq, entry.seq);
  return max_seq + 5;
}

void PrefixList::add_deny(const Ipv4Prefix& prefix) {
  entries.push_back(PrefixListEntry{next_seq(), /*permit=*/false, prefix,
                                    std::nullopt, std::nullopt});
}

void PrefixList::add_permit_all() {
  const Ipv4Prefix any{Ipv4Address{0u}, 0};
  for (const auto& entry : entries) {
    if (entry.permit && entry.prefix == any && entry.le == 32) return;
  }
  entries.push_back(
      PrefixListEntry{next_seq(), /*permit=*/true, any, 32, std::nullopt});
}

bool AclEntry::matches(const Ipv4Prefix& src, const Ipv4Prefix& dst) const {
  return source.contains(src.network()) && destination.contains(dst.network());
}

bool AccessList::permits(const Ipv4Prefix& src, const Ipv4Prefix& dst) const {
  for (const auto& entry : entries) {
    if (entry.matches(src, dst)) return entry.permit;
  }
  return false;  // implicit deny
}

Ipv4Prefix InterfaceConfig::prefix() const {
  if (!address) {
    throw std::logic_error("interface " + name + " has no address");
  }
  return Ipv4Prefix{*address, prefix_length};
}

bool OspfConfig::covers(Ipv4Address addr) const {
  return std::any_of(networks.begin(), networks.end(),
                     [&](const OspfNetwork& n) { return n.prefix.contains(addr); });
}

bool RipConfig::covers(Ipv4Address addr) const {
  return std::any_of(networks.begin(), networks.end(), [&](Ipv4Address n) {
    return Ipv4Prefix{n, n.classful_prefix_length()}.contains(addr);
  });
}

void RipConfig::cover(Ipv4Address addr) {
  const Ipv4Address classful{
      addr.bits() &
      Ipv4Prefix{addr, addr.classful_prefix_length()}.mask_bits()};
  if (std::find(networks.begin(), networks.end(), classful) == networks.end()) {
    networks.push_back(classful);
  }
}

BgpNeighbor* BgpConfig::find_neighbor(Ipv4Address addr) {
  for (auto& neighbor : neighbors) {
    if (neighbor.address == addr) return &neighbor;
  }
  return nullptr;
}

const BgpNeighbor* BgpConfig::find_neighbor(Ipv4Address addr) const {
  return const_cast<BgpConfig*>(this)->find_neighbor(addr);
}

InterfaceConfig* RouterConfig::find_interface(std::string_view name) {
  for (auto& iface : interfaces) {
    if (iface.name == name) return &iface;
  }
  return nullptr;
}

const InterfaceConfig* RouterConfig::find_interface(
    std::string_view name) const {
  return const_cast<RouterConfig*>(this)->find_interface(name);
}

const InterfaceConfig* RouterConfig::interface_towards(
    Ipv4Address addr) const {
  for (const auto& iface : interfaces) {
    if (iface.address && iface.prefix().contains(addr)) return &iface;
  }
  return nullptr;
}

PrefixList* RouterConfig::find_prefix_list(std::string_view name) {
  for (auto& list : prefix_lists) {
    if (list.name == name) return &list;
  }
  return nullptr;
}

PrefixList& RouterConfig::ensure_prefix_list(const std::string& name) {
  if (auto* existing = find_prefix_list(name)) return *existing;
  prefix_lists.push_back(PrefixList{name, {}});
  return prefix_lists.back();
}

std::string RouterConfig::fresh_interface_name() const {
  for (int i = 0;; ++i) {
    std::string candidate = "Ethernet" + std::to_string(100 + i);
    if (find_interface(candidate) == nullptr) return candidate;
  }
}

InterfaceConfig& RouterConfig::add_lookalike_interface(
    Ipv4Address address, int prefix_length, std::string description) {
  InterfaceConfig iface;
  iface.name = fresh_interface_name();
  iface.address = address;
  iface.prefix_length = prefix_length;
  iface.description = std::move(description);
  if (!interfaces.empty()) iface.extra_lines = interfaces.front().extra_lines;
  interfaces.push_back(std::move(iface));
  return interfaces.back();
}

std::string RouterConfig::fresh_prefix_list_name(std::string_view stem) const {
  for (int i = 1;; ++i) {
    std::string candidate = std::string(stem) + "_" + std::to_string(i);
    bool taken = false;
    for (const auto& list : prefix_lists) {
      if (list.name == candidate) taken = true;
    }
    if (!taken) return candidate;
  }
}

const AccessList* RouterConfig::find_access_list(int number) const {
  for (const auto& list : access_lists) {
    if (list.number == number) return &list;
  }
  return nullptr;
}

RouterConfig* ConfigSet::find_router(std::string_view hostname) {
  for (auto& router : routers) {
    if (router.hostname == hostname) return &router;
  }
  return nullptr;
}

const RouterConfig* ConfigSet::find_router(std::string_view hostname) const {
  return const_cast<ConfigSet*>(this)->find_router(hostname);
}

HostConfig* ConfigSet::find_host(std::string_view hostname) {
  for (auto& host : hosts) {
    if (host.hostname == hostname) return &host;
  }
  return nullptr;
}

const HostConfig* ConfigSet::find_host(std::string_view hostname) const {
  return const_cast<ConfigSet*>(this)->find_host(hostname);
}

std::vector<Ipv4Prefix> ConfigSet::used_prefixes() const {
  std::vector<Ipv4Prefix> prefixes;
  for (const auto& router : routers) {
    for (const auto& iface : router.interfaces) {
      if (iface.address) prefixes.push_back(iface.prefix());
    }
    if (router.ospf) {
      for (const auto& network : router.ospf->networks) {
        prefixes.push_back(network.prefix);
      }
    }
    if (router.rip) {
      for (const auto network : router.rip->networks) {
        prefixes.push_back(
            Ipv4Prefix{network, network.classful_prefix_length()});
      }
    }
    if (router.bgp) {
      for (const auto& network : router.bgp->networks) {
        prefixes.push_back(network);
      }
    }
  }
  for (const auto& host : hosts) prefixes.push_back(host.prefix());
  std::sort(prefixes.begin(), prefixes.end());
  prefixes.erase(std::unique(prefixes.begin(), prefixes.end()),
                 prefixes.end());
  return prefixes;
}

}  // namespace confmask
