// Multi-job scheduler: the execution core of confmaskd.
//
// Jobs are admitted into a bounded queue and executed by a fixed set of
// worker threads, each driving one guarded pipeline at a time. Workers are
// ORCHESTRATION threads in the pipeline's sense: the heavy lifting inside
// each pipeline still fans out over the process-wide ThreadPool::shared(),
// which is safe for concurrent submitters (thread_pool.hpp) — so
// max_concurrent_jobs trades per-job latency against cross-job throughput
// without oversubscribing cores.
//
// Every execution starts with an ArtifactCache lookup. A hit completes the
// job immediately with the cached bytes (no simulation runs at all); a miss
// runs run_pipeline_guarded on the CANONICAL device ordering (device order
// feeds pipeline tie-breaks, so cache-keyed jobs must execute on the exact
// bytes they were keyed on) and, iff the fail-closed gate passed, publishes
// the artifacts. Failed pipelines are never cached.
//
// Durability (job_journal.hpp): when a journal is attached, every accepted
// submission is fsync'd to it BEFORE the submit is acknowledged — an ack
// means the job survives kill -9. On construction the scheduler replays
// the journal's recovery: interrupted jobs re-enter the queue under their
// original ids, completed ones are restored as terminal tombstones.
//
// Deadlines and cancellation: each job owns a CancelToken; `deadline_ms`
// arms it at admission, cancel() of a running job fires it explicitly. The
// pipeline polls the token at phase boundaries, so an expired/cancelled
// job stops within one phase, lands in the DeadlineExceeded taxonomy, and
// is never cached.
//
// Admission control degrades gracefully: a full queue yields a rejection
// carrying `retry_after_ms`, a server-computed backoff hint that scales
// with queue depth (client.hpp honors it with jittered retry).
//
// Tenancy and fair share: every job belongs to a tenant namespace
// (kDefaultTenant when the request names none), its cache key folds the
// tenant in (cache_key.hpp), and the single FIFO is replaced by one queue
// per tenant drained by deficit round-robin — a tenant's quantum is its
// configured weight, so a weight-2 tenant drains two jobs per rotation
// while a saturating tenant can never push another tenant's first job
// behind its backlog. Per-tenant quotas (TenantTable) bound each tenant's
// queue depth (rejections carry retry_after_ms scaled by THAT tenant's
// backlog) and running-job count (jobs past the cap simply wait their
// turn without blocking other tenants' dispatch).
//
// Fleet sharding: with a RendezvousRing and a peer_fetch callback
// installed, a cache miss whose key is owned by ANOTHER daemon first asks
// the owner for the artifact bundle (bounded deadline inside the
// callback) and only computes locally when the peer cannot serve it —
// peer trouble degrades to compute, never to a failed job. Single-flight
// dedup runs underneath: N concurrent executions of one key elect one
// leader to fetch/compute while the rest wait and then complete from the
// freshly published local entry.
//
// Per-job observability: each worker installs a thread-scoped PipelineTrace
// tagged "job-<id>" (or "<tenant>/job-<id>") and hands every line of it to
// Options::trace_listener together with the job's id, so concurrent jobs'
// span streams stay attributable without reading the tag back. The
// deterministic half of that trace (metrics_json without timings) is the
// job's metrics artifact.
//
// Shutdown is fail-closed and graceful: running jobs always run to
// completion (a cancelled half-published entry is exactly what the staging
// protocol exists to prevent); queued jobs either drain (kDrain) or are
// marked cancelled without side effects (kCancelPending).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <set>

#include "src/core/pipeline_runner.hpp"
#include "src/service/artifact_cache.hpp"
#include "src/service/cache_key.hpp"
#include "src/service/shard_ring.hpp"
#include "src/service/tenant.hpp"
#include "src/util/cancellation.hpp"

namespace confmask {

class JobJournal;
struct PatchContext;

/// One anonymization request. `configs` need not be canonically ordered.
struct JobRequest {
  ConfigSet configs;
  ConfMaskOptions options;
  /// End-to-end deadline in milliseconds, measured from admission (queue
  /// wait counts). 0 = none. After a crash recovery the budget restarts —
  /// wall-clock deadlines cannot survive a reboot meaningfully.
  std::uint64_t deadline_ms = 0;
  /// Namespace the job runs under. Validated at the protocol layer
  /// (valid_tenant_name); folded into the cache key at admission.
  std::string tenant = std::string(kDefaultTenant);
};

/// The cache key of `request`, whose bundle renders as `canonical_text`
/// (canonical_config_set_text of its canonical order): the one key
/// derivation, shared by admission and journal recovery. Every job runs
/// under RetryPolicy{} and ConfMask's Step 2.1, in the request's tenant.
[[nodiscard]] CacheKey job_key(const JobRequest& request,
                               std::string_view canonical_text);

/// A watch-mode re-anonymization request: instead of shipping the whole
/// bundle again, the client names a previously published artifact (the
/// 16-hex `cache_key` it received) and sends a confmask-diff/1 edit script
/// against that entry's ORIGINAL bundle. The scheduler reconstructs the
/// full next bundle server-side (lookup_original + apply_bundle_diff), so
/// the job keys, journals, caches and executes exactly like a plain submit
/// of the reconstructed bundle — resubmit changes the WIRE cost and, when
/// the base's pipeline state is still resident, the EXECUTION cost, never
/// the result bytes.
struct ResubmitRequest {
  std::string base_key_hex;  ///< primary digest of the base cache entry
  std::string diff_text;     ///< confmask-diff/1 bundle diff vs. the base
  ConfMaskOptions options;
  std::uint64_t deadline_ms = 0;  ///< same semantics as JobRequest
  /// Namespace of the resubmit. The base entry must belong to the SAME
  /// tenant (lookup_original is tenant-scoped) — a resubmit can never use
  /// another namespace's artifact as its diff base.
  std::string tenant = std::string(kDefaultTenant);
};

enum class JobState { kQueued, kRunning, kDone, kFailed, kCancelled };

[[nodiscard]] const char* to_string(JobState state);

/// Point-in-time view of a job. Error fields are meaningful only in
/// kFailed/kCancelled; `cache_hit` only in kDone.
struct JobStatus {
  std::uint64_t id = 0;
  JobState state = JobState::kQueued;
  std::string tenant = std::string(kDefaultTenant);
  std::string cache_key;  ///< 16-hex primary digest, known from submit
  bool cache_hit = false;
  std::string error_stage;     ///< to_string(PipelineStage)
  std::string error_category;  ///< to_string(ErrorCategory)
  std::string error_message;
  int exit_code = 0;  ///< errors.hpp exit code taxonomy (0 until failed)
  /// kDone only: at least one pipeline stage reused simulation state from
  /// a resident watch context (see PatchContext) instead of building its
  /// entry simulation from scratch. Purely an efficiency signal — patched
  /// and unpatched runs are byte-identical by construction.
  bool patched = false;
};

/// Artifacts of a finished job. For kDone all three artifact fields are
/// populated (from cache or from a fresh run — byte-identical either way).
/// For kFailed only `diagnostics_json` is populated: the fail-closed
/// contract forbids shipping unverified configs, but the operator still
/// gets the full failure story.
struct JobResult {
  CacheArtifacts artifacts;
  bool cache_hit = false;
};

/// Outcome of an admission attempt. Exactly one of `id` / `error` is
/// meaningful; `retry_after_ms > 0` marks the rejection as TRANSIENT (load
/// shedding — retry after the hint), 0 as permanent for this request.
struct SubmitOutcome {
  std::optional<std::uint64_t> id;
  std::uint32_t retry_after_ms = 0;
  std::string error;

  [[nodiscard]] bool accepted() const { return id.has_value(); }
};

/// Per-tenant counters surfaced by stats (and the `stats` protocol verb).
struct TenantCounters {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t peer_hits = 0;
  std::size_t queued = 0;
  std::size_t running = 0;
};

struct SchedulerStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t rejected = 0;  ///< admission-control refusals
  /// Jobs that hit their deadline (already expired at dequeue or expired
  /// mid-run). A subset of `failed`.
  std::uint64_t deadline_exceeded = 0;
  /// Jobs re-enqueued or restored as terminal from the journal at startup.
  std::uint64_t recovered = 0;
  std::size_t queued = 0;
  std::size_t running = 0;
  CacheStats cache;
  /// Simulation runs performed by this scheduler's workers (cache hits
  /// contribute zero — the acceptance signal that caching works).
  std::uint64_t simulations = 0;
  /// Watch-mode admissions (resubmit()) accepted into the queue.
  std::uint64_t resubmitted = 0;
  /// Completed jobs where >=1 stage reused a resident watch context.
  std::uint64_t patched_jobs = 0;
  /// Jobs that were OFFERED a resident watch context but reused nothing
  /// (structural edit, options drift, fail-closed seed rejection): the
  /// run was correct but paid full cost.
  std::uint64_t patch_fallbacks = 0;
  /// Completed resubmits whose base had no resident watch context (evicted
  /// from the LRU, or never captured): they ran cold without being offered
  /// one. With the two counters above it splits every resubmit this
  /// scheduler computed and published.
  std::uint64_t watch_context_misses = 0;
  /// Watch contexts currently resident (<= watch_context_capacity).
  std::size_t watch_contexts = 0;
  /// Accepted resubmits whose base bundle came from a resident watch
  /// context, with no cache read or parse (the cache's hit count does not
  /// see these lookups).
  std::uint64_t resident_bases = 0;
  /// Local misses whose key another fleet member owned and served: the job
  /// completed from the peer's bytes with zero local simulations.
  std::uint64_t peer_hits = 0;
  /// Peer-fetch attempts that came back empty (owner lacked the entry,
  /// transport failure, deadline) — the job fell back to local compute.
  std::uint64_t peer_misses = 0;
  /// Jobs that waited behind a single-flight leader on the same key and
  /// then completed without their own fetch/compute.
  std::uint64_t coalesced_jobs = 0;
  /// Per-tenant slice of the counters above plus live queue/run depth.
  std::map<std::string, TenantCounters> tenants;
};

class JobScheduler {
 public:
  struct Options {
    int max_concurrent_jobs = 2;
    /// Admission control: submissions beyond this many queued (not yet
    /// running) jobs are rejected, keeping the daemon's memory bounded.
    std::size_t max_pending = 64;
    /// Receives every line of every job's trace stream with the job's id,
    /// from the job's worker (concurrent jobs call it concurrently).
    /// nullptr = jobs run untraced (metrics artifact still produced via a
    /// sinkless trace).
    std::function<void(std::uint64_t job, std::string_view line)>
        trace_listener;
    /// Write-ahead journal. nullptr = no durability (tests, ephemeral
    /// runs). Not owned; must outlive the scheduler. Its recovery() is
    /// consumed by the constructor: pending jobs re-enter the queue,
    /// terminal ones become queryable tombstones.
    JobJournal* journal = nullptr;
    /// Base of the load-shedding retry hint: the hint grows linearly with
    /// queue depth per worker, so clients back off harder the further
    /// behind the daemon is.
    std::uint32_t retry_after_base_ms = 100;
    /// Watch contexts (captured pipeline state keyed by the producing
    /// job's cache key) kept resident for resubmit patching, LRU-bounded.
    /// Contexts hold live Simulation state — a few MB per mid-size
    /// network — so the budget is deliberately small. 0 disables capture
    /// entirely (resubmits still work; they just always run cold).
    std::size_t watch_context_capacity = 4;
    /// Called with a snapshot at every job state transition (queued →
    /// running → terminal), from the thread driving the transition and
    /// OUTSIDE mutex_ — it may take locks but must not call back into the
    /// scheduler. confmaskd uses it to stream state events to subscribed
    /// connections. nullptr = no listener.
    std::function<void(const JobStatus&)> state_listener;
    /// Per-tenant quotas and weights; replaceable at runtime via
    /// set_tenant_table (SIGHUP reload). The default-constructed table has
    /// no per-tenant bounds — pre-fleet behavior exactly.
    TenantTable tenants;
    /// The fleet's shard ring. nullptr or solo() = no peer lookups. Not
    /// owned; must outlive the scheduler.
    const RendezvousRing* ring = nullptr;
    /// Fetches `key`'s artifact bundle from `owner` (an endpoint from the
    /// ring), bounded by the daemon's peer deadline. Returns nullopt on
    /// miss/timeout/transport failure — the scheduler then computes
    /// locally. Called OUTSIDE mutex_, from the executing worker.
    std::function<std::optional<CacheArtifacts>(
        const std::string& owner, const CacheKey& key,
        const std::string& tenant)>
        peer_fetch;
  };

  enum class ShutdownMode {
    kDrain,          ///< finish queued jobs, then stop
    kCancelPending,  ///< cancel queued jobs, finish only running ones
  };

  /// `cache` is not owned and must outlive the scheduler.
  JobScheduler(ArtifactCache* cache, Options options);
  /// Implies shutdown(kCancelPending) if not already shut down.
  ~JobScheduler();

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Admits a job: canonicalize, key, journal (fsync'd — the WAL step),
  /// enqueue. See SubmitOutcome for the rejection contract.
  [[nodiscard]] SubmitOutcome submit_ex(JobRequest request);

  /// Watch-mode admission: reconstructs the full bundle from a cached base
  /// entry plus a confmask-diff/1 script, then admits it exactly like
  /// submit_ex. Rejections are permanent (retry_after_ms == 0) when the
  /// base is unknown/evicted or the diff is malformed or inapplicable —
  /// the client recovers by falling back to a full submit. The admitted
  /// job carries a patch hint; if the base's watch context is still
  /// resident when the job executes, unchanged pipeline state is reused
  /// (JobStatus::patched). Recovered-from-journal jobs always run cold:
  /// the journal persists the reconstructed bundle, not the hint —
  /// contexts die with the process anyway.
  [[nodiscard]] SubmitOutcome resubmit(ResubmitRequest request);

  [[nodiscard]] std::optional<JobStatus> status(std::uint64_t id) const;

  /// Artifacts of a terminal job (see JobResult). nullopt while the job is
  /// queued/running, after cancellation, or for unknown ids. For a kDone
  /// job restored from the journal the artifacts are re-read from the
  /// cache; if they were evicted meanwhile this returns nullopt and the
  /// client resubmits (convergent by content addressing).
  [[nodiscard]] std::optional<JobResult> result(std::uint64_t id) const;

  /// Cancels a job. Queued: removed immediately (kCancelled, no side
  /// effects). Running: fires the job's CancelToken — the pipeline stops
  /// cooperatively at its next poll point and the job lands in kCancelled
  /// with DeadlineExceeded taxonomy. Returns false for unknown/terminal
  /// jobs.
  bool cancel(std::uint64_t id);

  /// Blocks until `id` reaches a terminal state; false for unknown ids.
  bool wait(std::uint64_t id);

  [[nodiscard]] SchedulerStats stats() const;

  /// Swaps the quota table (SIGHUP reload) and pushes its cache shares
  /// into the ArtifactCache. Applies to subsequent admissions, dispatches,
  /// and evictions; jobs already queued or running are not revisited.
  void set_tenant_table(TenantTable table);

  /// Idempotent; blocks until workers exit (all running jobs finished).
  void shutdown(ShutdownMode mode);

 private:
  struct Job {
    /// The request; admission moves its configs into `canonical`.
    JobRequest request;
    /// canonicalize(request.configs): what executes. Released once the
    /// job is terminal — result() never returns it — and then lives on
    /// only as the original bundle of the job's watch context, if any.
    std::shared_ptr<const ConfigSet> canonical;
    /// canonical_config_set_text(canonical), rendered once at admission
    /// (or restore) for the cache key and the journal; the executing
    /// worker moves it into the published artifact.
    std::string canonical_text;
    CacheKey key;
    JobStatus status;
    JobResult result;
    std::string failure_diagnostics;  ///< diagnostics_json of a failed run
    /// Fired by deadline expiry or cancel(); polled by the pipeline.
    /// shared_ptr: cancel() may race the job's own teardown.
    std::shared_ptr<CancelToken> token;
    /// Restored from a journal tombstone: request/canonical are empty and
    /// result artifacts live (only) in the cache.
    bool restored = false;
    /// Resubmit only: primary hex of the base entry whose watch context
    /// (if still resident at execution) seeds the pipeline. Empty for
    /// plain submits and journal-recovered jobs. A hint, never a
    /// dependency: a missing context just means a cold run.
    std::string patch_base;
  };

  /// Captured pipeline state of a completed job, reusable by resubmits.
  struct WatchContext {
    std::shared_ptr<const PatchContext> context;
    std::string tenant;           ///< the producing job's namespace
    std::uint64_t last_used = 0;  ///< recency sequence, larger = fresher
  };

  /// Shared admission tail of submit_ex/resubmit: canonicalize, key,
  /// journal, enqueue. `patch_base` (may be empty) rides into the Job.
  [[nodiscard]] SubmitOutcome admit(JobRequest request,
                                    std::string patch_base);
  /// Queues job `id`, admitted or recovered from the journal: fills its
  /// Job entry (`request` with its configs moved into `canonical`), arms
  /// its deadline, appends it to its tenant's queue and counts the
  /// submission. Caller holds mutex_.
  void enqueue_locked(std::uint64_t id, JobRequest request,
                      ConfigSet canonical, std::string canonical_text,
                      const CacheKey& key, std::string patch_base);
  /// Installs `context` under `key_hex` for `tenant`, evicting
  /// least-recently-used contexts beyond watch_context_capacity. Caller
  /// holds mutex_ and drops the returned contexts (replaced or evicted)
  /// only after unlocking: freeing one releases simulations, config clones
  /// and an index, which must not stall status queries, admissions or the
  /// other workers.
  [[nodiscard]] std::vector<std::shared_ptr<const PatchContext>>
  prime_context_locked(const std::string& key_hex, const std::string& tenant,
                       std::shared_ptr<const PatchContext> context);

  /// Live scheduling state of one tenant namespace.
  struct TenantState {
    std::deque<std::uint64_t> queue;
    std::size_t running = 0;
    TenantCounters counters;
  };

  /// True when some tenant has a queued job it is allowed to run now
  /// (nonempty queue, under its concurrency cap). Caller holds mutex_.
  [[nodiscard]] bool dispatchable_locked() const;
  /// Deficit-round-robin pick: continues the current tenant's quantum
  /// (its weight) before rotating to the next eligible tenant in
  /// lexicographic cycle order. Caller holds mutex_.
  [[nodiscard]] std::optional<std::uint64_t> pick_job_locked();

  /// How a job ends: the input of finish().
  struct Ending {
    JobState state = JobState::kDone;
    /// kDone: what result() returns (the original bundle is dropped: the
    /// cache keeps it for resubmits), whether it was served without
    /// running the pipeline here, and whether the run reused a watch
    /// context.
    CacheArtifacts artifacts;
    bool cache_hit = false;
    bool patched = false;
    /// kDone: captured state to keep resident for resubmits against this
    /// job (may be null).
    std::shared_ptr<const PatchContext> context;
    /// kFailed/kCancelled: the run's diagnostics, which fill the status's
    /// error taxonomy and, rendered, are what result() returns. Absent for
    /// a job cancelled before it ran, which has only `message`.
    std::optional<PipelineDiagnostics> diagnostics;
    std::string message;
    /// Simulations the job's worker ran.
    std::uint64_t simulations = 0;
  };

  void worker_loop();
  void execute(std::uint64_t id);
  /// The one terminal transition: writes `ending` into job `id` (state,
  /// artifacts or error taxonomy, counters), installs its watch context,
  /// wakes the waiters and releases `lock`, which the caller holds on
  /// mutex_. The snapshot then goes to journal_state, outside the lock,
  /// and only after that are the job's inputs and the displaced watch
  /// contexts freed.
  void finish(std::unique_lock<std::mutex>& lock, std::uint64_t id,
              Ending ending);
  /// Publishes a state transition: invokes Options::state_listener with the
  /// snapshot, then appends a state record when a journal is attached.
  /// Called OUTSIDE mutex_ — neither the listener nor the fsync may stall
  /// status queries. A failed append is counted by the journal and
  /// otherwise ignored: replay simply re-runs the job and converges
  /// through the cache.
  void journal_state(const JobStatus& status, std::uint64_t secondary);

  [[nodiscard]] bool terminal_locked(std::uint64_t id) const;
  void restore_from_journal();

  ArtifactCache* cache_;
  Options options_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  ///< workers: queue/shutdown changes
  std::condition_variable done_cv_;  ///< waiters: job reached terminal state
  std::condition_variable flight_cv_;  ///< single-flight leader finished
  std::map<std::uint64_t, Job> jobs_;
  /// tenant → queue + live counters. Entries persist once created (the
  /// counters are cumulative) — the map is bounded by distinct tenant
  /// names seen, which admission keeps to validated names only.
  std::map<std::string, TenantState> tenants_;
  std::size_t queued_total_ = 0;
  /// DRR rotation: the tenant holding the dispatch token and how much of
  /// its quantum (weight) remains.
  std::string drr_current_;
  int drr_credit_ = 0;
  /// Primary digests with a fetch/compute in flight (single-flight dedup).
  std::set<std::uint64_t> inflight_keys_;
  std::uint64_t next_id_ = 1;
  bool draining_ = false;
  bool stopping_ = false;
  bool shut_down_ = false;
  SchedulerStats stats_;
  std::vector<std::thread> workers_;
  /// cache-key hex → resident watch context, LRU-bounded by
  /// options_.watch_context_capacity.
  std::map<std::string, WatchContext> contexts_;
  std::uint64_t context_counter_ = 0;
};

}  // namespace confmask
