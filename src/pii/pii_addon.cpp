#include "src/pii/pii_addon.hpp"

#include <algorithm>
#include <utility>

#include "src/pii/crypto_pan.hpp"
#include "src/util/strings.hpp"

namespace confmask {

namespace {

/// Deterministic AS-number map into the private 16-bit range.
int hash_as(std::uint64_t key, int as_number) {
  std::uint64_t state = key ^ (static_cast<std::uint64_t>(as_number) << 13);
  state += 0x9E3779B97F4A7C15ULL;
  state = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9ULL;
  state ^= state >> 31;
  return 64512 + static_cast<int>(state % 1023);  // 64512..65534
}

/// True if a passthrough line carries a credential-like payload.
bool is_secret_line(std::string_view line) {
  for (const char* marker :
       {"enable secret", "enable password", "username ",
        "snmp-server community", "key-string", "tacacs", "radius"}) {
    if (line.find(marker) != std::string_view::npos) return true;
  }
  return false;
}

/// Replaces everything after the first two tokens with a placeholder.
std::string scrub_line(std::string_view line) {
  std::vector<std::string_view> tokens;
  split_ws(line, tokens);
  std::string out;
  for (std::size_t i = 0; i < std::min<std::size_t>(2, tokens.size()); ++i) {
    if (i != 0) out += ' ';
    out += std::string(tokens[i]);
  }
  out += " <removed>";
  return out;
}

}  // namespace

PiiResult apply_pii_addon(const ConfigSet& configs,
                          const PiiOptions& options) {
  PiiResult result;
  result.configs = configs;
  // Class-preserving (first octet fixed) so classful RIP statements and
  // address-class semantics survive the renumbering.
  const PrefixPreservingAnonymizer pan(options.key,
                                       /*preserved_prefix_bits=*/8);

  // ---- device renaming ----------------------------------------------
  if (options.rename_devices) {
    int router_counter = 0;
    int host_counter = 0;
    for (const auto& router : configs.routers) {
      std::string name = "R";
      name += std::to_string(++router_counter);
      result.device_names[router.hostname] = std::move(name);
    }
    for (const auto& host : configs.hosts) {
      std::string name = "H";
      name += std::to_string(++host_counter);
      result.device_names[host.hostname] = std::move(name);
    }
  }
  const auto renamed = [&](const std::string& name) {
    const auto it = result.device_names.find(name);
    return it == result.device_names.end() ? name : it->second;
  };

  // ---- AS hashing: build the map first so collisions can be resolved
  // consistently ---------------------------------------------------------
  if (options.hash_as_numbers) {
    for (const auto& router : configs.routers) {
      if (!router.bgp) continue;
      const auto consider = [&](int as_number) {
        if (result.as_numbers.count(as_number) != 0) return;
        int candidate = hash_as(options.key, as_number);
        // Linear probing on collision keeps the map injective.
        const auto taken = [&](int value) {
          return std::any_of(result.as_numbers.begin(),
                             result.as_numbers.end(), [&](const auto& kv) {
                               return kv.second == value;
                             });
        };
        while (taken(candidate)) {
          candidate = 64512 + (candidate - 64512 + 1) % 1023;
        }
        result.as_numbers[as_number] = candidate;
      };
      consider(router.bgp->local_as);
      for (const auto& neighbor : router.bgp->neighbors) {
        consider(neighbor.remote_as);
      }
    }
  }
  const auto mapped_as = [&](int as_number) {
    const auto it = result.as_numbers.find(as_number);
    return it == result.as_numbers.end() ? as_number : it->second;
  };

  // ---- rewrite routers -------------------------------------------------
  for (auto& router : result.configs.routers) {
    router.hostname = renamed(router.hostname);
    for (auto& iface : router.interfaces) {
      if (options.anonymize_ips && iface.address) {
        iface.address = pan.anonymize(*iface.address);
      }
      if (options.rename_devices && starts_with(iface.description, "to-")) {
        iface.description = "to-" + renamed(iface.description.substr(3));
      }
      if (options.scrub_secrets) {
        for (auto& line : iface.extra_lines) {
          if (is_secret_line(line)) {
            line = scrub_line(line);
            ++result.scrubbed_lines;
          }
        }
      }
    }
    if (options.anonymize_ips) {
      if (router.ospf) {
        for (auto& network : router.ospf->networks) {
          network.prefix = pan.anonymize(network.prefix);
        }
      }
      if (router.rip) {
        for (auto& network : router.rip->networks) {
          // Classful statements must stay classful: keep the class bits
          // by re-canonicalizing to the original classful length.
          const int length = network.classful_prefix_length();
          network = Ipv4Prefix{pan.anonymize(network), length}.network();
        }
      }
      if (router.bgp) {
        for (auto& network : router.bgp->networks) {
          network = pan.anonymize(network);
        }
        for (auto& neighbor : router.bgp->neighbors) {
          neighbor.address = pan.anonymize(neighbor.address);
        }
      }
      for (auto& list : router.prefix_lists) {
        for (auto& entry : list.entries) {
          entry.prefix = pan.anonymize(entry.prefix);
        }
      }
    }
    if (options.hash_as_numbers && router.bgp) {
      router.bgp->local_as = mapped_as(router.bgp->local_as);
      for (auto& neighbor : router.bgp->neighbors) {
        neighbor.remote_as = mapped_as(neighbor.remote_as);
      }
    }
    if (options.scrub_secrets) {
      for (auto& line : router.extra_lines) {
        if (is_secret_line(line)) {
          line = scrub_line(line);
          ++result.scrubbed_lines;
        }
      }
    }
  }

  // ---- rewrite hosts ----------------------------------------------------
  for (auto& host : result.configs.hosts) {
    host.hostname = renamed(host.hostname);
    if (options.anonymize_ips) {
      host.address = pan.anonymize(host.address);
      host.gateway = pan.anonymize(host.gateway);
    }
    if (options.scrub_secrets) {
      for (auto& line : host.extra_lines) {
        if (is_secret_line(line)) {
          line = scrub_line(line);
          ++result.scrubbed_lines;
        }
      }
    }
  }
  return result;
}

}  // namespace confmask
