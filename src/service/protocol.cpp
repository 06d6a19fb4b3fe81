#include "src/service/protocol.hpp"

#include <exception>
#include <utility>

#include "src/config/parse.hpp"
#include "src/service/job_journal.hpp"
#include "src/service/json_line.hpp"
#include "src/service/tenant.hpp"
#include "src/util/build_info.hpp"

namespace confmask {

namespace {

std::string error_response(std::string_view op, std::string_view message) {
  return JsonWriter{}
      .boolean("ok", false)
      .string("op", op)
      .string("error", message)
      .str();
}

/// Reads an optional int field into `out`; returns false (and fills
/// `error`) when the field is present but not an integer that fits `int`.
bool read_int(const JsonObject& request, std::string_view key, int& out,
              std::string& error) {
  if (request.find(std::string(key)) == request.end()) return true;
  const auto value = get_int(request, key);
  if (!value || !std::in_range<int>(*value)) {
    error = std::string(key) + " must be an integer";
    return false;
  }
  out = static_cast<int>(*value);
  return true;
}

/// The tuning surface shared by submit and resubmit — both ops accept the
/// identical parameter set (a resubmit is a submit whose bundle arrives as
/// base+diff). Fills `options`/`deadline_ms` from the request; on a
/// malformed field, or one no run can use (option_error), returns false
/// with `error` naming it.
bool read_job_params(const JsonObject& request, ConfMaskOptions& options,
                     std::uint64_t& deadline_ms, std::string& error) {
  if (!read_int(request, "k_r", options.k_r, error) ||
      !read_int(request, "k_h", options.k_h, error) ||
      !read_int(request, "fake_routers", options.fake_routers, error) ||
      !read_int(request, "links_per_fake_router",
                options.links_per_fake_router, error)) {
    return false;
  }
  if (request.find("noise_p") != request.end()) {
    const auto noise = get_double(request, "noise_p");
    if (!noise) {
      error = "noise_p must be a number in [0, 1]";
      return false;
    }
    options.noise_p = *noise;
  }
  if (request.find("seed") != request.end()) {
    // get_u64 reads the raw token: seeds above 2^53 survive exactly.
    const auto seed = get_u64(request, "seed");
    if (!seed) {
      error = "seed must be an unsigned integer";
      return false;
    }
    options.seed = *seed;
  }
  // Every job runs ConfMask's own Step 2.1; the strawmen are in-process
  // baselines. Ignoring another name would run a different algorithm than
  // the client asked for.
  if (request.find("strategy") != request.end() &&
      get_string(request, "strategy") != "confmask") {
    error = "strategy must be \"confmask\"";
    return false;
  }
  if (const auto name = get_string(request, "cost_policy")) {
    const auto policy = parse_cost_policy(*name);
    if (!policy) {
      error = "unknown cost_policy";
      return false;
    }
    options.cost_policy = *policy;
  }
  if (request.find("deadline_ms") != request.end()) {
    const auto deadline = get_u64(request, "deadline_ms");
    if (!deadline) {
      error = "deadline_ms must be an unsigned integer";
      return false;
    }
    deadline_ms = *deadline;
  }
  if (auto bound = option_error(options)) {
    error = std::move(*bound);
    return false;
  }
  return true;
}

/// Reads the optional `tenant` field into `out`. Absent = the default
/// namespace. A present-but-invalid name is a loud error — admission must
/// never coerce a garbled namespace into "default" (that would silently
/// cross an isolation boundary).
bool read_tenant(const JsonObject& request, std::string& out,
                 std::string& error) {
  if (request.find("tenant") == request.end()) return true;
  const auto tenant = get_string(request, "tenant");
  if (!tenant) {
    error = "tenant must be a string";
    return false;
  }
  if (!valid_tenant_name(*tenant)) {
    error = "invalid tenant name (want 1-64 chars of [A-Za-z0-9_.-])";
    return false;
  }
  out = *tenant;
  return true;
}

/// The admission rejection line shared by submit and resubmit: transient
/// load-shed rejections carry the server's backoff hint, permanent ones
/// do not (client.hpp retries on exactly the hint's presence).
std::string rejection_response(std::string_view op,
                               const SubmitOutcome& outcome) {
  JsonWriter out;
  out.boolean("ok", false)
      .string("op", op)
      .string("error", "rejected: " + outcome.error);
  if (outcome.retry_after_ms > 0) {
    out.number_u64("retry_after_ms", outcome.retry_after_ms);
  }
  return out.str();
}

}  // namespace

std::string ProtocolHandler::handle(std::string_view line,
                                    ShutdownCommand* shutdown,
                                    SubscribeCommand* subscribe) {
  std::string parse_error;
  const auto request = parse_json_line(line, &parse_error);
  if (!request) {
    return error_response("", "malformed request line: " + parse_error);
  }
  const auto op = get_string(*request, "op");
  if (!op) return error_response("", "missing op");

  if (*op == "submit") {
    const auto configs_text = get_string(*request, "configs");
    if (!configs_text) return error_response(*op, "missing configs");
    JobRequest job;
    try {
      job.configs = parse_config_set(*configs_text);
    } catch (const std::exception& error) {
      return error_response(*op, error.what());
    }
    std::string field_error;
    if (!read_job_params(*request, job.options, job.deadline_ms,
                         field_error) ||
        !read_tenant(*request, job.tenant, field_error)) {
      return error_response(*op, field_error);
    }
    const std::string tenant = job.tenant;
    const SubmitOutcome outcome = scheduler_->submit_ex(std::move(job));
    if (!outcome.accepted()) return rejection_response(*op, outcome);
    const auto status = scheduler_->status(*outcome.id);
    return JsonWriter{}
        .boolean("ok", true)
        .string("op", *op)
        .number_u64("job", *outcome.id)
        .string("cache_key", status ? status->cache_key : "")
        .string("tenant", tenant)
        .str();
  }

  if (*op == "resubmit") {
    const auto base = get_string(*request, "base");
    if (!base) return error_response(*op, "missing base");
    const auto diff = get_string(*request, "diff");
    if (!diff) return error_response(*op, "missing diff");
    ResubmitRequest job;
    job.base_key_hex = *base;
    job.diff_text = *diff;
    std::string field_error;
    if (!read_job_params(*request, job.options, job.deadline_ms,
                         field_error) ||
        !read_tenant(*request, job.tenant, field_error)) {
      return error_response(*op, field_error);
    }
    const std::string tenant = job.tenant;
    const SubmitOutcome outcome = scheduler_->resubmit(std::move(job));
    if (!outcome.accepted()) return rejection_response(*op, outcome);
    const auto status = scheduler_->status(*outcome.id);
    return JsonWriter{}
        .boolean("ok", true)
        .string("op", *op)
        .number_u64("job", *outcome.id)
        .string("cache_key", status ? status->cache_key : "")
        .string("base", *base)
        .string("tenant", tenant)
        .str();
  }

  if (*op == "status" || *op == "result" || *op == "cancel") {
    const auto id = get_u64(*request, "job");
    if (!id) return error_response(*op, "missing or invalid job id");

    if (*op == "cancel") {
      const bool cancelled = scheduler_->cancel(*id);
      return JsonWriter{}
          .boolean("ok", true)
          .string("op", *op)
          .number_u64("job", *id)
          .boolean("cancelled", cancelled)
          .str();
    }

    const auto status = scheduler_->status(*id);
    if (!status) return error_response(*op, "unknown job");

    if (*op == "status") {
      JsonWriter out;
      out.boolean("ok", true)
          .string("op", *op)
          .number_u64("job", *id)
          .string("state", to_string(status->state))
          .string("tenant", status->tenant)
          .string("cache_key", status->cache_key)
          .boolean("cache_hit", status->cache_hit)
          .boolean("patched", status->patched);
      if (status->state == JobState::kFailed) {
        out.string("error_stage", status->error_stage)
            .string("error_category", status->error_category)
            .string("error_message", status->error_message)
            .number("exit_code", status->exit_code);
      }
      return std::move(out).str();
    }

    const auto result = scheduler_->result(*id);
    if (!result) return error_response(*op, "job not finished");
    JsonWriter out;
    out.boolean("ok", true)
        .string("op", *op)
        .number_u64("job", *id)
        .string("state", to_string(status->state))
        .string("tenant", status->tenant)
        .boolean("cache_hit", result->cache_hit)
        .string("configs", result->artifacts.anonymized_configs)
        .string("diagnostics", result->artifacts.diagnostics_json)
        .string("metrics", result->artifacts.metrics_json);
    return std::move(out).str();
  }

  if (*op == "peer-fetch") {
    // Fleet-internal artifact transfer: a peer daemon asks the shard
    // owner for the complete entry at a 16-hex primary address. A miss is
    // a SUCCESS with found:false (the caller falls back to local compute);
    // only a malformed request is an error. The response carries the
    // secondary digest and the owning tenant so the fetcher can republish
    // under the exact same address and account the bytes correctly.
    const auto key_hex = get_string(*request, "key");
    if (!key_hex) return error_response(*op, "missing key");
    const auto entry = cache_->lookup_by_hex(*key_hex);
    if (!entry) {
      return JsonWriter{}
          .boolean("ok", true)
          .string("op", *op)
          .boolean("found", false)
          .string("key", *key_hex)
          .str();
    }
    JsonWriter out;
    out.boolean("ok", true)
        .string("op", *op)
        .boolean("found", true)
        .string("key", entry->key.hex())
        .number_u64("secondary", entry->key.secondary)
        .string("tenant", entry->tenant)
        .string("stamp", cache_->stamp())
        .string("configs", entry->artifacts.anonymized_configs)
        .string("original", entry->artifacts.original_configs)
        .string("diagnostics", entry->artifacts.diagnostics_json)
        .string("metrics", entry->artifacts.metrics_json);
    return std::move(out).str();
  }

  if (*op == "subscribe") {
    const auto id = get_u64(*request, "job");
    if (!id) return error_response(*op, "missing or invalid job id");
    const auto status = scheduler_->status(*id);
    if (!status) return error_response(*op, "unknown job");
    if (subscribe == nullptr) {
      return error_response(*op, "transport does not support streaming");
    }
    subscribe->requested = true;
    subscribe->job = *id;
    return JsonWriter{}
        .boolean("ok", true)
        .string("op", *op)
        .number_u64("job", *id)
        .string("state", to_string(status->state))
        .str();
  }

  if (*op == "stats") {
    const SchedulerStats stats = scheduler_->stats();
    JsonWriter out;
    out.boolean("ok", true)
        .string("op", *op)
        .number_u64("submitted", stats.submitted)
        .number_u64("completed", stats.completed)
        .number_u64("failed", stats.failed)
        .number_u64("cancelled", stats.cancelled)
        .number_u64("rejected", stats.rejected)
        .number_u64("deadline_exceeded", stats.deadline_exceeded)
        .number_u64("recovered", stats.recovered)
        .number_u64("queued", stats.queued)
        .number_u64("running", stats.running)
        .number_u64("cache_hits", stats.cache.hits)
        .number_u64("cache_misses", stats.cache.misses)
        .number_u64("cache_stores", stats.cache.stores)
        .number_u64("cache_invalidations", stats.cache.invalidations)
        .number_u64("cache_evictions", stats.cache.evictions)
        .number_u64("cache_io_errors", stats.cache.io_errors)
        .number_u64("simulations", stats.simulations)
        .number_u64("resubmitted", stats.resubmitted)
        .number_u64("patched_jobs", stats.patched_jobs)
        .number_u64("patch_fallbacks", stats.patch_fallbacks)
        .number_u64("watch_context_misses", stats.watch_context_misses)
        .number_u64("watch_contexts", stats.watch_contexts)
        .number_u64("resident_bases", stats.resident_bases)
        .number_u64("peer_hits", stats.peer_hits)
        .number_u64("peer_misses", stats.peer_misses)
        .number_u64("coalesced_jobs", stats.coalesced_jobs)
        .string("stamp", cache_->stamp());
    // Per-tenant slices ride in the same flat line as namespaced keys —
    // the json_line grammar has no nesting, and tenant names are already
    // restricted to [A-Za-z0-9_.-] so the composed key stays unambiguous.
    for (const auto& [name, t] : stats.tenants) {
      const std::string prefix = "tenant:" + name + ":";
      out.number_u64(prefix + "submitted", t.submitted)
          .number_u64(prefix + "completed", t.completed)
          .number_u64(prefix + "rejected", t.rejected)
          .number_u64(prefix + "peer_hits", t.peer_hits)
          .number_u64(prefix + "queued", t.queued)
          .number_u64(prefix + "running", t.running)
          .number_u64(prefix + "cache_bytes", cache_->tenant_bytes(name));
    }
    return out.str();
  }

  if (*op == "ping") {
    // The health-probe answer: build identity, uptime, load, and the
    // durability layer's vitals — everything an operator needs to decide
    // "is this daemon the one I deployed, and is it keeping up".
    const SchedulerStats stats = scheduler_->stats();
    const auto uptime = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - started_);
    JsonWriter out;
    out.boolean("ok", true)
        .string("op", *op)
        .string("version", version())
        .string("stamp", cache_->stamp())
        .number_u64("uptime_ms", static_cast<std::uint64_t>(uptime.count()))
        .number_u64("queued", stats.queued)
        .number_u64("running", stats.running)
        .number_u64("submitted", stats.submitted)
        .number_u64("completed", stats.completed)
        .number_u64("failed", stats.failed)
        .number_u64("cache_entries",
                    static_cast<std::uint64_t>(cache_->entry_count()))
        .number_u64("cache_bytes", cache_->total_bytes())
        .number_u64("cache_budget_bytes", cache_->max_bytes())
        .number_u64("cache_evictions", stats.cache.evictions)
        .number_u64("tenants", static_cast<std::uint64_t>(stats.tenants.size()))
        .number_u64("peer_hits", stats.peer_hits)
        .number_u64("peer_misses", stats.peer_misses)
        .boolean("journal", journal_ != nullptr);
    if (journal_ != nullptr) {
      const JournalStats jstats = journal_->stats();
      out.number_u64("journal_appends", jstats.appends)
          .number_u64("journal_append_failures", jstats.append_failures)
          .number_u64("journal_recovered_pending", jstats.recovered_pending)
          .number_u64("journal_tombstones", jstats.tombstones)
          .number_u64("journal_truncated_bytes", jstats.truncated_bytes);
    }
    return out.str();
  }

  if (*op == "shutdown") {
    JobScheduler::ShutdownMode mode = JobScheduler::ShutdownMode::kDrain;
    if (const auto name = get_string(*request, "mode")) {
      if (*name == "drain") {
        mode = JobScheduler::ShutdownMode::kDrain;
      } else if (*name == "cancel") {
        mode = JobScheduler::ShutdownMode::kCancelPending;
      } else {
        return error_response(*op, "unknown shutdown mode");
      }
    }
    if (shutdown != nullptr) {
      shutdown->requested = true;
      shutdown->mode = mode;
    }
    return JsonWriter{}
        .boolean("ok", true)
        .string("op", *op)
        .string("mode", mode == JobScheduler::ShutdownMode::kDrain
                            ? "drain"
                            : "cancel")
        .str();
  }

  return error_response(*op, "unknown op");
}

}  // namespace confmask
