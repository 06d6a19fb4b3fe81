#include "src/service/tenant.hpp"

#include <sstream>
#include <utility>

#include "src/service/json_line.hpp"

namespace confmask {

bool valid_tenant_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (name == "*") return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

const TenantQuota& TenantTable::quota_for(std::string_view tenant) const {
  const auto it = quotas_.find(std::string(tenant));
  return it == quotas_.end() ? defaults_ : it->second;
}

std::map<std::string, std::uint64_t> TenantTable::cache_shares() const {
  std::map<std::string, std::uint64_t> shares;
  for (const auto& [name, quota] : quotas_) {
    if (quota.cache_share_bytes > 0) shares[name] = quota.cache_share_bytes;
  }
  return shares;
}

namespace {

bool fail(std::string* error, int line_number, const std::string& message) {
  if (error != nullptr) {
    *error = "tenants line " + std::to_string(line_number) + ": " + message;
  }
  return false;
}

/// One config line -> one quota entry. The json-line grammar is the same
/// strict subset the wire protocol uses; every field except "tenant" is
/// optional and non-negative.
bool parse_quota_line(const std::string& line, int line_number,
                      std::string* tenant_out, TenantQuota* quota_out,
                      std::string* error) {
  std::string parse_error;
  const auto object = parse_json_line(line, &parse_error);
  if (!object) return fail(error, line_number, parse_error);

  const auto tenant = get_string(*object, "tenant");
  if (!tenant) return fail(error, line_number, "missing \"tenant\" field");
  if (*tenant != "*" && !valid_tenant_name(*tenant)) {
    return fail(error, line_number, "invalid tenant name \"" + *tenant + "\"");
  }

  TenantQuota quota;
  for (const auto& [key, value] : *object) {
    if (key == "tenant") continue;
    // Read exactly: cache_share_bytes takes any u64, the rest an int.
    const auto number = get_u64(*object, key);
    if (!number ||
        (key != "cache_share_bytes" && !std::in_range<int>(*number))) {
      return fail(error, line_number,
                  "field \"" + key + "\" must be a non-negative integer");
    }
    if (key == "max_pending") {
      quota.max_pending = static_cast<std::size_t>(*number);
    } else if (key == "max_concurrent") {
      quota.max_concurrent = static_cast<int>(*number);
    } else if (key == "cache_share_bytes") {
      quota.cache_share_bytes = *number;
    } else if (key == "weight") {
      quota.weight = *number < 1 ? 1 : static_cast<int>(*number);
    } else {
      return fail(error, line_number, "unknown field \"" + key + "\"");
    }
  }
  *tenant_out = *tenant;
  *quota_out = quota;
  return true;
}

}  // namespace

std::optional<TenantTable> parse_tenant_table(const std::string& text,
                                              std::string* error) {
  TenantTable table;
  std::istringstream stream(text);
  std::string line;
  int line_number = 0;
  bool seen_defaults = false;
  while (std::getline(stream, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    std::string_view trimmed = line;
    while (!trimmed.empty() && (trimmed.front() == ' ' || trimmed.front() == '\t')) {
      trimmed.remove_prefix(1);
    }
    if (trimmed.empty() || trimmed.front() == '#') continue;

    std::string tenant;
    TenantQuota quota;
    if (!parse_quota_line(std::string(trimmed), line_number, &tenant, &quota,
                          error)) {
      return std::nullopt;
    }
    if (tenant == "*") {
      if (seen_defaults) {
        fail(error, line_number, "duplicate \"*\" defaults line");
        return std::nullopt;
      }
      seen_defaults = true;
      table.set_defaults(quota);
    } else {
      if (table.named().count(tenant) != 0) {
        fail(error, line_number, "duplicate tenant \"" + tenant + "\"");
        return std::nullopt;
      }
      table.set_quota(tenant, quota);
    }
  }
  return table;
}

}  // namespace confmask
