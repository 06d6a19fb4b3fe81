// The confmaskd request/response protocol.
//
// Transport-independent: one request is one flat JSON line (json_line.hpp
// grammar), one response is one flat JSON line. The daemon frames lines
// over a unix-domain socket; tests drive the handler directly with
// strings. Bulk payloads (config bundles, diagnostics/metrics documents)
// travel as single escaped string values, keeping the wire grammar flat.
//
// Operations (the "op" field):
//   submit   configs (required, canonical bundle text) + optional
//            parameters: k_r, k_h (each at least 1), noise_p (in [0, 1]),
//            seed, cost_policy, fake_routers, links_per_fake_router (each
//            at least 0; the bounds are option_error's), deadline_ms,
//            tenant; `strategy`, when present, must be "confmask" (the
//            strawmen run only in process) and keys like its absence;
//            unknown fields are ignored, the retired `incremental` and
//            `max_equivalence_iterations` among them
//            → {ok, op, job, cache_key, tenant}. A load-shed rejection is
//            {ok: false, op, error, retry_after_ms} — the hint is the
//            server-computed backoff the client should honor. `tenant`
//            names the namespace the job (and its cache entry) belongs
//            to; omitted = "default". Invalid names are loud errors,
//            never coerced (tenant.hpp::valid_tenant_name).
//   resubmit base (required, 16-hex cache_key of a published entry) +
//            diff (required, confmask-diff/1 bundle diff against that
//            entry's ORIGINAL bundle) + the same optional parameters as
//            submit → {ok, op, job, cache_key, base}. The daemon
//            reconstructs the full bundle server-side; an unknown/evicted
//            base or malformed diff is a permanent {ok: false} (no
//            retry_after_ms) — the client falls back to a full submit.
//   status   job → {ok, op, job, state, tenant, cache_key, cache_hit,
//            patched [, error_*]} — `patched` is true when the run reused
//            simulation state from a resident watch context
//   result   job → {ok, op, job, state, tenant, cache_hit, configs,
//            diagnostics, metrics} (terminal jobs only; failed jobs carry
//            diagnostics but never configs — fail closed end to end)
//   peer-fetch key (required, 16-hex primary digest) → the fleet-internal
//            artifact transfer. Hit: {ok, op, found: true, key,
//            secondary, tenant, stamp, configs, original, diagnostics,
//            metrics} — everything the fetching daemon needs to republish
//            the entry locally under the identical address. Miss:
//            {ok: true, op, found: false, key} — a success, not an
//            error: the caller falls back to local compute. Tenant
//            isolation needs no filter here because the tenant is folded
//            into the key digest itself (cache_key.hpp v3).
//   cancel   job → {ok, op, job, cancelled}; queued jobs cancel
//            immediately, running jobs cancel cooperatively at the
//            pipeline's next poll point
//   stats    → scheduler + cache counters, build stamp, fleet counters
//            (peer_hits/peer_misses/coalesced_jobs) and one flattened
//            "tenant:<name>:<counter>" key per tenant counter (the wire
//            grammar is flat, so namespacing lives in the key)
//   ping     → {ok, op, stamp, version, uptime_ms, queued, running,
//            cache_entries, cache_bytes, ...} — liveness + one-line
//            operational summary, cheap enough for a health probe loop
//   subscribe job → {ok, op, job, state} ack, after which the transport
//            streams NDJSON event lines for that job on the same
//            connection: pipeline trace spans (type: span_begin/span_end)
//            and state transitions ({op: "event", type: "state", ...}).
//            The terminal state event ends the stream and the server
//            closes the connection. Subscribing to an already-terminal
//            job yields the ack plus exactly the terminal event. Only
//            meaningful over a streaming transport; the direct handler
//            returns the ack and reports the subscription upward via
//            SubscribeCommand.
//   shutdown mode: "drain" (default) | "cancel" → {ok, op, mode}; the
//            transport stops accepting after relaying this.
//
// Every response leads with "ok" and echoes "op"; failures are
// {ok: false, op, error}. Unknown ops, malformed JSON, wrong field kinds
// and unparsable configs are all loud errors, never guesses — and the
// parse errors name the deviation ("duplicate key \"seed\"", "trailing
// bytes after object") rather than a generic "malformed".
#pragma once

#include <chrono>
#include <optional>
#include <string>
#include <string_view>

#include "src/service/job_scheduler.hpp"

namespace confmask {

class JobJournal;

/// Set by handle() when the request was a (successfully parsed) shutdown.
struct ShutdownCommand {
  bool requested = false;
  JobScheduler::ShutdownMode mode = JobScheduler::ShutdownMode::kDrain;
};

/// Set by handle() when the request was a valid subscribe: the transport
/// attaches the connection as an event subscriber of `job`. A transport
/// that cannot stream (none today) passes nullptr and subscribe becomes a
/// loud error instead of a silently dead stream.
struct SubscribeCommand {
  bool requested = false;
  std::uint64_t job = 0;
};

class ProtocolHandler {
 public:
  /// No pointer is owned; scheduler and cache must outlive the handler.
  /// `journal` may be null (no durability configured) — ping then reports
  /// journal: false.
  ProtocolHandler(JobScheduler* scheduler, ArtifactCache* cache,
                  const JobJournal* journal = nullptr)
      : scheduler_(scheduler),
        cache_(cache),
        journal_(journal),
        started_(std::chrono::steady_clock::now()) {}

  /// Handles one request line; returns the response line (no trailing
  /// newline). Never throws for protocol-level problems — they become
  /// {ok: false} responses.
  [[nodiscard]] std::string handle(std::string_view line,
                                   ShutdownCommand* shutdown = nullptr,
                                   SubscribeCommand* subscribe = nullptr);

 private:
  JobScheduler* scheduler_;
  ArtifactCache* cache_;
  const JobJournal* journal_;
  std::chrono::steady_clock::time_point started_;
};

}  // namespace confmask
