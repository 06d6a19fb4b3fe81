#include "src/config/parse.hpp"

#include <algorithm>
#include <charconv>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/config/emit.hpp"
#include "src/util/strings.hpp"

namespace confmask {

namespace {

/// Cursor over configuration lines with 1-based line numbers for errors.
/// The lines are split(text, '\n')'s fields, found one at a time in place.
class LineCursor {
 public:
  explicit LineCursor(std::string_view text) : text_(text) { load(); }

  [[nodiscard]] bool done() const { return start_ > text_.size(); }
  [[nodiscard]] std::string_view peek() const { return line_; }
  [[nodiscard]] std::size_t line_number() const { return number_; }
  void advance() {
    start_ += line_.size() + 1;
    ++number_;
    load();
  }

  /// True if the current line is a continuation (indented) block line.
  [[nodiscard]] bool at_block_line() const {
    return !done() && !line_.empty() &&
           (line_[0] == ' ' || line_[0] == '\t') && !trim(line_).empty();
  }

 private:
  void load() {
    if (done()) return;
    const std::size_t eol = text_.find('\n', start_);
    line_ = text_.substr(start_, eol == std::string_view::npos
                                     ? std::string_view::npos
                                     : eol - start_);
  }

  std::string_view text_;
  std::string_view line_;
  std::size_t start_ = 0;
  std::size_t number_ = 1;
};

int parse_int(std::string_view token, std::size_t line_number,
              const char* what) {
  int value = 0;
  auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc{} || ptr != token.data() + token.size()) {
    throw ConfigParseError(line_number,
                           std::string("bad ") + what + ": " +
                               std::string(token));
  }
  return value;
}

Ipv4Address parse_addr(std::string_view token, std::size_t line_number,
                       const char* what) {
  const auto addr = Ipv4Address::parse(token);
  if (!addr) {
    throw ConfigParseError(line_number, std::string("bad ") + what + ": " +
                                            std::string(token));
  }
  return *addr;
}

/// Consumes `interface NAME` and its block.
InterfaceConfig parse_interface_block(LineCursor& cursor,
                                      std::string_view name) {
  InterfaceConfig iface;
  iface.name = std::string(name);
  cursor.advance();
  std::vector<std::string_view> tokens;
  while (cursor.at_block_line()) {
    const std::size_t line_number = cursor.line_number();
    const std::string_view body = trim(cursor.peek());
    split_ws(body, tokens);
    if (tokens.size() == 4 && tokens[0] == "ip" && tokens[1] == "address") {
      const auto addr = parse_addr(tokens[2], line_number, "address");
      const auto mask = parse_addr(tokens[3], line_number, "mask");
      const auto prefix = Ipv4Prefix::from_mask(addr, mask);
      if (!prefix) {
        throw ConfigParseError(line_number, "non-contiguous subnet mask");
      }
      iface.address = addr;
      iface.prefix_length = prefix->length();
    } else if (tokens.size() == 4 && tokens[0] == "ip" &&
               tokens[1] == "ospf" && tokens[2] == "cost") {
      iface.ospf_cost = parse_int(tokens[3], line_number, "ospf cost");
    } else if (!tokens.empty() && tokens[0] == "description") {
      iface.description = std::string(trim(body.substr(11)));
    } else if (tokens.size() == 1 && tokens[0] == "shutdown") {
      iface.shutdown = true;
    } else if (tokens.size() == 4 && tokens[0] == "ip" &&
               tokens[1] == "access-group" && tokens[3] == "in") {
      iface.access_group_in = parse_int(tokens[2], line_number, "acl number");
    } else {
      iface.extra_lines.emplace_back(body);
    }
    cursor.advance();
  }
  return iface;
}

OspfConfig parse_ospf_block(LineCursor& cursor, int process_id) {
  OspfConfig ospf;
  ospf.process_id = process_id;
  cursor.advance();
  std::vector<std::string_view> tokens;
  while (cursor.at_block_line()) {
    const std::size_t line_number = cursor.line_number();
    const std::string_view body = trim(cursor.peek());
    split_ws(body, tokens);
    if (tokens.size() == 5 && tokens[0] == "network" && tokens[3] == "area") {
      const auto addr = parse_addr(tokens[1], line_number, "network");
      const auto wildcard = parse_addr(tokens[2], line_number, "wildcard");
      const auto prefix = Ipv4Prefix::from_wildcard(addr, wildcard);
      if (!prefix) {
        throw ConfigParseError(line_number, "non-contiguous wildcard mask");
      }
      ospf.networks.push_back(
          OspfNetwork{*prefix, parse_int(tokens[4], line_number, "area")});
    } else if (tokens.size() == 5 && tokens[0] == "distribute-list" &&
               tokens[1] == "prefix" && tokens[3] == "in") {
      ospf.distribute_lists.push_back(
          DistributeList{std::string(tokens[2]), std::string(tokens[4])});
    } else {
      ospf.extra_lines.emplace_back(body);
    }
    cursor.advance();
  }
  return ospf;
}

RipConfig parse_rip_block(LineCursor& cursor) {
  RipConfig rip;
  cursor.advance();
  std::vector<std::string_view> tokens;
  while (cursor.at_block_line()) {
    const std::size_t line_number = cursor.line_number();
    const std::string_view body = trim(cursor.peek());
    split_ws(body, tokens);
    if (tokens.size() == 2 && tokens[0] == "version") {
      rip.version = parse_int(tokens[1], line_number, "version");
    } else if (tokens.size() == 2 && tokens[0] == "network") {
      rip.networks.push_back(parse_addr(tokens[1], line_number, "network"));
    } else if (tokens.size() == 5 && tokens[0] == "distribute-list" &&
               tokens[1] == "prefix" && tokens[3] == "in") {
      rip.distribute_lists.push_back(
          DistributeList{std::string(tokens[2]), std::string(tokens[4])});
    } else {
      rip.extra_lines.emplace_back(body);
    }
    cursor.advance();
  }
  return rip;
}

BgpConfig parse_bgp_block(LineCursor& cursor, int local_as) {
  BgpConfig bgp;
  bgp.local_as = local_as;
  cursor.advance();
  std::vector<std::string_view> tokens;
  while (cursor.at_block_line()) {
    const std::size_t line_number = cursor.line_number();
    const std::string_view body = trim(cursor.peek());
    split_ws(body, tokens);
    if (tokens.size() == 4 && tokens[0] == "network" && tokens[2] == "mask") {
      const auto addr = parse_addr(tokens[1], line_number, "network");
      const auto mask = parse_addr(tokens[3], line_number, "mask");
      const auto prefix = Ipv4Prefix::from_mask(addr, mask);
      if (!prefix) {
        throw ConfigParseError(line_number, "non-contiguous network mask");
      }
      bgp.networks.push_back(*prefix);
    } else if (tokens.size() == 4 && tokens[0] == "neighbor" &&
               tokens[2] == "remote-as") {
      const auto addr = parse_addr(tokens[1], line_number, "neighbor");
      bgp.neighbors.push_back(BgpNeighbor{
          addr, parse_int(tokens[3], line_number, "remote-as"), {}});
    } else if (tokens.size() == 5 && tokens[0] == "neighbor" &&
               tokens[2] == "prefix-list" && tokens[4] == "in") {
      const auto addr = parse_addr(tokens[1], line_number, "neighbor");
      auto* neighbor = bgp.find_neighbor(addr);
      if (neighbor == nullptr) {
        throw ConfigParseError(line_number,
                               "prefix-list for unknown neighbor " +
                                   addr.str());
      }
      neighbor->prefix_lists_in.emplace_back(tokens[3]);
    } else {
      bgp.extra_lines.emplace_back(body);
    }
    cursor.advance();
  }
  return bgp;
}

/// Parses one `ip prefix-list ...` line into `router`.
void parse_prefix_list_line(RouterConfig& router,
                            const std::vector<std::string_view>& tokens,
                            std::size_t line_number) {
  // ip prefix-list NAME seq N {permit|deny} PFX [ge G] [le L]
  if (tokens.size() < 6 || tokens[3] != "seq") {
    throw ConfigParseError(line_number, "malformed ip prefix-list");
  }
  PrefixListEntry entry;
  entry.seq = parse_int(tokens[4], line_number, "seq");
  if (tokens[5] == "permit") {
    entry.permit = true;
  } else if (tokens[5] == "deny") {
    entry.permit = false;
  } else {
    throw ConfigParseError(line_number, "expected permit/deny");
  }
  if (tokens.size() < 7) {
    throw ConfigParseError(line_number, "missing prefix");
  }
  const auto prefix = Ipv4Prefix::parse(tokens[6]);
  if (!prefix) {
    throw ConfigParseError(line_number,
                           "bad prefix: " + std::string(tokens[6]));
  }
  entry.prefix = *prefix;
  for (std::size_t i = 7; i + 1 < tokens.size(); i += 2) {
    if (tokens[i] == "ge") {
      entry.ge = parse_int(tokens[i + 1], line_number, "ge");
    } else if (tokens[i] == "le") {
      entry.le = parse_int(tokens[i + 1], line_number, "le");
    } else {
      throw ConfigParseError(line_number,
                             "unexpected token: " + std::string(tokens[i]));
    }
  }
  // A list's entries are contiguous in emitted text: try the last one
  // first (names are unique, so it is the list ensure_prefix_list finds).
  const std::string_view name = tokens[2];
  PrefixList& list =
      !router.prefix_lists.empty() && router.prefix_lists.back().name == name
          ? router.prefix_lists.back()
          : router.ensure_prefix_list(std::string(name));
  list.entries.push_back(entry);
}

/// Parses one `access-list N {permit|deny} ip SRC DST` line, where each
/// operand is either `any` or `ADDR WILDCARD`. Truncated lines throw: an
/// ACL that silently drops out of the model would change which packets a
/// simulated interface filters.
void parse_access_list_line(RouterConfig& router,
                            const std::vector<std::string_view>& tokens,
                            std::size_t line_number) {
  AclEntry entry;
  if (tokens.size() < 2) {
    throw ConfigParseError(line_number,
                           "truncated access-list: missing list number");
  }
  const int number = parse_int(tokens[1], line_number, "acl number");
  if (tokens.size() < 3) {
    throw ConfigParseError(line_number,
                           "truncated access-list: missing permit/deny");
  }
  if (tokens[2] == "permit") {
    entry.permit = true;
  } else if (tokens[2] == "deny") {
    entry.permit = false;
  } else {
    throw ConfigParseError(line_number, "expected permit/deny");
  }
  if (tokens.size() < 4) {
    throw ConfigParseError(line_number,
                           "truncated access-list: missing protocol");
  }
  std::size_t pos = 4;
  const auto operand = [&]() -> Ipv4Prefix {
    if (pos >= tokens.size()) {
      throw ConfigParseError(line_number, "missing ACL operand");
    }
    if (tokens[pos] == "any") {
      ++pos;
      return Ipv4Prefix{Ipv4Address{0u}, 0};
    }
    if (pos + 1 >= tokens.size()) {
      throw ConfigParseError(line_number, "missing ACL wildcard");
    }
    const auto addr = parse_addr(tokens[pos], line_number, "acl address");
    const auto wildcard =
        parse_addr(tokens[pos + 1], line_number, "acl wildcard");
    const auto prefix = Ipv4Prefix::from_wildcard(addr, wildcard);
    if (!prefix) {
      throw ConfigParseError(line_number, "non-contiguous ACL wildcard");
    }
    pos += 2;
    return *prefix;
  };
  entry.source = operand();
  entry.destination = operand();
  if (pos != tokens.size()) {
    throw ConfigParseError(line_number, "trailing tokens in access-list");
  }
  for (auto& list : router.access_lists) {
    if (list.number == number) {
      list.entries.push_back(entry);
      return;
    }
  }
  router.access_lists.push_back(AccessList{number, {entry}});
}

/// Runs a parser body, attaching `source` to any ConfigParseError escaping
/// it — the block parsers throw with line context only; the entry points
/// know which configuration is being parsed.
template <typename Fn>
auto with_parse_source(std::string_view source, Fn&& body) {
  if (source.empty()) return body();
  try {
    return body();
  } catch (const ConfigParseError& error) {
    throw error.with_source(source);
  }
}

RouterConfig parse_router_impl(std::string_view text) {
  RouterConfig router;
  LineCursor cursor(text);
  std::vector<std::string_view> tokens;
  while (!cursor.done()) {
    const std::size_t line_number = cursor.line_number();
    const std::string_view body = trim(cursor.peek());
    if (body.empty() || body == "!") {
      cursor.advance();
      continue;
    }
    split_ws(body, tokens);
    if (tokens.size() == 2 && tokens[0] == "hostname") {
      router.hostname = std::string(tokens[1]);
      cursor.advance();
    } else if (tokens.size() == 2 && tokens[0] == "interface") {
      router.interfaces.push_back(parse_interface_block(cursor, tokens[1]));
    } else if (tokens.size() == 3 && tokens[0] == "router" &&
               tokens[1] == "ospf") {
      router.ospf = parse_ospf_block(
          cursor, parse_int(tokens[2], line_number, "process id"));
    } else if (tokens.size() == 2 && tokens[0] == "router" &&
               tokens[1] == "rip") {
      router.rip = parse_rip_block(cursor);
    } else if (tokens.size() == 3 && tokens[0] == "router" &&
               tokens[1] == "bgp") {
      router.bgp =
          parse_bgp_block(cursor, parse_int(tokens[2], line_number, "AS"));
    } else if (tokens.size() >= 3 && tokens[0] == "ip" &&
               tokens[1] == "prefix-list") {
      parse_prefix_list_line(router, tokens, line_number);
      cursor.advance();
    } else if (tokens[0] == "access-list" &&
               (tokens.size() < 4 || tokens[3] == "ip")) {
      // Non-"ip" protocols (tcp/udp/...) are outside the model and kept as
      // extra lines; everything else that says "access-list" must parse or
      // throw — a truncated line silently becoming an extra line would
      // drop a packet filter from the simulation.
      parse_access_list_line(router, tokens, line_number);
      cursor.advance();
    } else if (tokens.size() == 5 && tokens[0] == "ip" &&
               tokens[1] == "route") {
      const auto addr = parse_addr(tokens[2], line_number, "route network");
      const auto mask = parse_addr(tokens[3], line_number, "route mask");
      const auto prefix = Ipv4Prefix::from_mask(addr, mask);
      if (!prefix) {
        throw ConfigParseError(line_number, "non-contiguous route mask");
      }
      router.static_routes.push_back(StaticRoute{
          *prefix, parse_addr(tokens[4], line_number, "route next hop")});
      cursor.advance();
    } else {
      router.extra_lines.emplace_back(body);
      cursor.advance();
    }
  }
  return router;
}

HostConfig parse_host_impl(std::string_view text) {
  HostConfig host;
  bool saw_gateway = false;
  LineCursor cursor(text);
  std::vector<std::string_view> tokens;
  while (!cursor.done()) {
    const std::size_t line_number = cursor.line_number();
    const std::string_view body = trim(cursor.peek());
    if (body.empty() || body == "!") {
      cursor.advance();
      continue;
    }
    split_ws(body, tokens);
    if (tokens.size() == 2 && tokens[0] == "hostname") {
      host.hostname = std::string(tokens[1]);
      cursor.advance();
    } else if (tokens.size() == 2 && tokens[0] == "interface") {
      const auto iface = parse_interface_block(cursor, tokens[1]);
      host.interface_name = iface.name;
      if (!iface.address) {
        throw ConfigParseError(line_number, "host interface has no address");
      }
      host.address = *iface.address;
      host.prefix_length = iface.prefix_length;
    } else if (tokens.size() == 3 && tokens[0] == "ip" &&
               tokens[1] == "default-gateway") {
      host.gateway = parse_addr(tokens[2], line_number, "gateway");
      saw_gateway = true;
      cursor.advance();
    } else {
      host.extra_lines.emplace_back(body);
      cursor.advance();
    }
  }
  if (!saw_gateway) {
    throw ConfigParseError(1, "host configuration lacks ip default-gateway");
  }
  return host;
}

}  // namespace

RouterConfig parse_router(std::string_view text, std::string_view source) {
  return with_parse_source(source, [&] { return parse_router_impl(text); });
}

HostConfig parse_host(std::string_view text, std::string_view source) {
  return with_parse_source(source, [&] { return parse_host_impl(text); });
}

bool looks_like_host(std::string_view text) {
  return text.find("ip default-gateway") != std::string_view::npos;
}

ConfigSet parse_config_set(std::string_view text) {
  // Each device's body is a view of `text`: from the line after its marker
  // to the next marker line (or the end).
  struct Chunk {
    std::string_view name;
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  std::vector<Chunk> chunks;
  // name -> first marker line
  std::unordered_map<std::string_view, std::size_t> marker_lines;
  std::size_t line_number = 0;
  for (std::size_t pos = 0; pos <= text.size();) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view raw = text.substr(pos, eol - pos);
    ++line_number;
    if (starts_with(raw, kDeviceMarker)) {
      if (!chunks.empty()) chunks.back().end = pos;
      const std::string_view name = trim(raw.substr(kDeviceMarker.size()));
      if (name.empty()) {
        throw ConfigParseError(line_number, "device marker without a name");
      }
      // Duplicates must be a hard error: last-wins merging would silently
      // corrupt the per-device cache digests (cache_key.hpp), which assume
      // one section per device name.
      const auto [first, inserted] = marker_lines.emplace(name, line_number);
      if (!inserted) {
        throw ConfigParseError(
            line_number, "duplicate device marker '" + std::string(name) +
                             "' (first defined at line " +
                             std::to_string(first->second) + ")");
      }
      const std::size_t begin = std::min(eol + 1, text.size());
      chunks.push_back(Chunk{name, begin, text.size()});
    } else if (chunks.empty()) {
      // Only emptiness/comments may precede the first marker — anything
      // else is a device we cannot attribute, and silently dropping it
      // would make two different inputs canonicalize identically.
      const std::string_view body = trim(raw);
      if (!body.empty() && body[0] != '!') {
        throw ConfigParseError(
            line_number, "configuration text before the first device marker");
      }
    }
    pos = eol + 1;
  }
  if (chunks.empty()) {
    throw ConfigParseError(1, "no device markers in configuration bundle");
  }
  ConfigSet out;
  for (const Chunk& chunk : chunks) {
    const std::string_view body =
        text.substr(chunk.begin, chunk.end - chunk.begin);
    if (looks_like_host(body)) {
      out.hosts.push_back(parse_host(body, chunk.name));
    } else {
      out.routers.push_back(parse_router(body, chunk.name));
    }
  }
  return out;
}

}  // namespace confmask
