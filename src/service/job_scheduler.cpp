#include "src/service/job_scheduler.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "src/config/diff.hpp"
#include "src/config/emit.hpp"
#include "src/config/parse.hpp"
#include "src/core/errors.hpp"
#include "src/core/patch_mode.hpp"
#include "src/core/pipeline_trace.hpp"
#include "src/routing/simulation.hpp"
#include "src/service/job_journal.hpp"
#include "src/service/json_line.hpp"
#include "src/util/hash.hpp"

namespace confmask {

namespace {

/// Hands each line of one job's trace to the scheduler's trace listener
/// with the job's id.
class JobTraceSink final : public obs::NdjsonSink {
 public:
  JobTraceSink(
      const std::function<void(std::uint64_t, std::string_view)>& listener,
      std::uint64_t job)
      : listener_(listener), job_(job) {}

  void write_line(std::string_view json_object) override {
    listener_(job_, json_object);
  }

 private:
  const std::function<void(std::uint64_t, std::string_view)>& listener_;
  std::uint64_t job_;
};

}  // namespace

CacheKey job_key(const JobRequest& request, std::string_view canonical_text) {
  return compute_cache_key(canonical_text, request.options, RetryPolicy{},
                           EquivalenceStrategy::kConfMask, request.tenant);
}

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "unknown";
}

JobScheduler::JobScheduler(ArtifactCache* cache, Options options)
    : cache_(cache), options_(options) {
  // The initial quota table's byte shares arm the cache from the first
  // publish, exactly like a set_tenant_table reload would.
  cache_->set_tenant_shares(options_.tenants.cache_shares());
  // Recovery runs BEFORE the workers exist: the queue and job table are
  // rebuilt single-threaded, then workers start on a consistent state.
  if (options_.journal != nullptr) restore_from_journal();
  const int workers = options_.max_concurrent_jobs < 1
                          ? 1
                          : options_.max_concurrent_jobs;
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

JobScheduler::~JobScheduler() { shutdown(ShutdownMode::kCancelPending); }

void JobScheduler::restore_from_journal() {
  const JournalRecovery& recovery = options_.journal->recovery();
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const JournalTombstone& tomb : recovery.terminal) {
    Job job;
    job.status = tomb.status;
    job.restored = true;
    job.request.tenant = tomb.status.tenant;
    job.key.primary = parse_hex64(tomb.status.cache_key).value_or(0);
    job.key.secondary = tomb.secondary;
    job.result.cache_hit = tomb.status.cache_hit;
    if (tomb.status.state == JobState::kFailed) {
      // The full diagnostics died with the previous process (they are
      // cached only for successes); reconstruct the taxonomy summary so
      // `result` still answers for the restored id.
      job.failure_diagnostics =
          JsonWriter{}
              .boolean("ok", false)
              .string("stage", tomb.status.error_stage)
              .string("category", tomb.status.error_category)
              .string("message", tomb.status.error_message)
              .number("exit_code", tomb.status.exit_code)
              .boolean("restored", true)
              .str() +
          "\n";
    }
    jobs_.emplace(tomb.status.id, std::move(job));
    ++stats_.recovered;
  }
  for (const RecoveredJob& recovered : recovery.pending) {
    JobRequest request = recovered.request;
    ConfigSet canonical = canonicalize(std::move(request.configs));
    enqueue_locked(recovered.id, std::move(request), std::move(canonical),
                   recovered.canonical_text, recovered.key,
                   /*patch_base=*/{});
    ++stats_.recovered;
  }
  next_id_ = std::max(next_id_, recovery.next_id);
}

SubmitOutcome JobScheduler::submit_ex(JobRequest request) {
  return admit(std::move(request), /*patch_base=*/{});
}

SubmitOutcome JobScheduler::resubmit(ResubmitRequest request) {
  // Reconstruct the full next bundle OUTSIDE the lock, then fall into the
  // ordinary admission path: from here on a resubmit IS a submit of the
  // reconstructed bundle (same key derivation, same journal record, same
  // cache entry), plus a patch hint the executor may exploit.
  SubmitOutcome out;
  // A resident watch context holds the base bundle already parsed. It
  // stands in for the cached original under lookup_original's rules: the
  // same tenant, and the entry still published.
  std::shared_ptr<const PatchContext> resident;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = contexts_.find(request.base_key_hex);
    if (it != contexts_.end() && it->second.tenant == request.tenant &&
        it->second.context->original.configs != nullptr) {
      resident = it->second.context;
    }
  }
  if (resident != nullptr &&
      !cache_->touch_entry(request.base_key_hex, request.tenant)) {
    resident = nullptr;
  }
  // Tenant-scoped base lookup: another namespace's entry is as good as
  // absent, so a resubmit can never read across the tenant boundary.
  std::optional<std::string> base;
  if (resident == nullptr) {
    base = cache_->lookup_original(request.base_key_hex, request.tenant);
  }
  if (resident == nullptr && !base) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.rejected;
    ++tenants_[request.tenant].counters.rejected;
    // Permanent for this request: the base was evicted or never existed.
    // The client recovers by sending the full bundle instead.
    out.error = "unknown base artifact '" + request.base_key_hex +
                "' (evicted or never published); submit the full bundle";
    return out;
  }

  JobRequest full;
  try {
    full.configs =
        resident != nullptr
            ? apply_bundle_diff(*resident->original.configs,
                                request.diff_text)
            : apply_bundle_diff(parse_config_set(*base), request.diff_text);
  } catch (const ConfigParseError& err) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.rejected;
    ++tenants_[request.tenant].counters.rejected;
    out.error = "bundle diff rejected: " + std::string(err.what());
    return out;
  }
  full.options = request.options;
  full.deadline_ms = request.deadline_ms;
  full.tenant = request.tenant;

  out = admit(std::move(full), request.base_key_hex);
  if (out.accepted()) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.resubmitted;
    if (resident != nullptr) ++stats_.resident_bases;
  }
  return out;
}

SubmitOutcome JobScheduler::admit(JobRequest request,
                                  std::string patch_base) {
  if (request.tenant.empty()) request.tenant = std::string(kDefaultTenant);
  // Canonicalize and key OUTSIDE the lock: emitting a large network is the
  // expensive part of admission and must not stall status queries. The
  // text is rendered once; the key, the journal record and the publish all
  // read it.
  ConfigSet canonical = canonicalize(std::move(request.configs));
  std::string canonical_text = canonical_config_set_text(canonical);
  const CacheKey key = job_key(request, canonical_text);

  SubmitOutcome out;
  std::uint64_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (shut_down_) {
      ++stats_.rejected;
      out.error = "shutting down";
      return out;
    }
    TenantState& tenant = tenants_[request.tenant];
    const TenantQuota& quota = options_.tenants.quota_for(request.tenant);
    // Load shedding, not a hard error: the hint scales with how far
    // behind the rejecting queue is (depth per worker), so a retrying
    // client naturally paces itself to the daemon's throughput. The
    // per-tenant hint uses the TENANT's own backlog — a tenant over its
    // quota backs off by its own depth while its neighbors sail through.
    const auto retry_hint = [&](std::size_t depth) {
      const std::uint64_t per_worker =
          depth /
          static_cast<std::size_t>(std::max(1, options_.max_concurrent_jobs));
      return static_cast<std::uint32_t>(std::min<std::uint64_t>(
          options_.retry_after_base_ms * (per_worker + 1), 10'000));
    };
    if (quota.max_pending > 0 && tenant.queue.size() >= quota.max_pending) {
      ++stats_.rejected;
      ++tenant.counters.rejected;
      out.error = "tenant queue full";
      out.retry_after_ms = retry_hint(tenant.queue.size());
      return out;
    }
    if (queued_total_ >= options_.max_pending) {
      ++stats_.rejected;
      ++tenant.counters.rejected;
      out.error = "queue full";
      out.retry_after_ms = retry_hint(queued_total_);
      return out;
    }
    id = next_id_++;
  }

  // The write-ahead step: the record must be ON DISK before the ack. An
  // unjournalable job is rejected — acknowledging it would promise a
  // durability we cannot deliver.
  if (options_.journal != nullptr) {
    std::string journal_error;
    if (!options_.journal->append_submit(id, request, key, canonical_text,
                                         &journal_error)) {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.rejected;
      out.error = "journal append failed: " + journal_error;
      return out;
    }
  }

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (shut_down_) {
      // Shutdown won the race while we were journaling. The journal holds
      // a submit with no terminal record; without this tombstone a restart
      // would resurrect a job whose submitter was told "no".
      ++stats_.rejected;
      out.error = "shutting down";
    } else {
      enqueue_locked(id, std::move(request), std::move(canonical),
                     std::move(canonical_text), key, std::move(patch_base));
      out.id = id;
    }
  }
  if (!out.accepted() && options_.journal != nullptr) {
    JobStatus tombstone;
    tombstone.id = id;
    tombstone.state = JobState::kCancelled;
    tombstone.tenant = request.tenant;  // intact: rejected path never moves
    tombstone.cache_key = key.hex();
    tombstone.error_message = "rejected at admission: shutting down";
    journal_state(tombstone, key.secondary);
  }
  return out;
}

void JobScheduler::enqueue_locked(std::uint64_t id, JobRequest request,
                                  ConfigSet canonical,
                                  std::string canonical_text,
                                  const CacheKey& key,
                                  std::string patch_base) {
  Job job;
  job.canonical = std::make_shared<const ConfigSet>(std::move(canonical));
  job.canonical_text = std::move(canonical_text);
  job.key = key;
  job.status.id = id;
  job.status.tenant = request.tenant;
  job.status.cache_key = key.hex();
  job.token = std::make_shared<CancelToken>();
  job.token->set_deadline_after(request.deadline_ms);
  job.patch_base = std::move(patch_base);
  TenantState& tenant = tenants_[request.tenant];
  job.request = std::move(request);
  jobs_.emplace(id, std::move(job));
  tenant.queue.push_back(id);
  ++tenant.counters.submitted;
  ++queued_total_;
  ++stats_.submitted;
  work_cv_.notify_one();
}

std::optional<JobStatus> JobScheduler::status(std::uint64_t id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return it->second.status;
}

std::optional<JobResult> JobScheduler::result(std::uint64_t id) const {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  const Job& job = it->second;
  if (job.status.state == JobState::kDone) {
    if (!job.restored) return job.result;
    // Restored completion: the artifacts live in the cache, not in memory.
    // Eviction may have taken them — then the honest answer is "gone",
    // and a resubmit converges to the same bytes by content addressing.
    const CacheKey key = job.key;
    const bool hit = job.result.cache_hit;
    lock.unlock();
    auto cached = cache_->lookup(key);
    if (!cached) return std::nullopt;
    JobResult restored;
    restored.artifacts = std::move(*cached);
    restored.cache_hit = hit;
    return restored;
  }
  if (job.status.state == JobState::kFailed) {
    JobResult failure;
    failure.artifacts.diagnostics_json = job.failure_diagnostics;
    return failure;
  }
  return std::nullopt;
}

bool JobScheduler::cancel(std::uint64_t id) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  Job& job = it->second;
  if (job.status.state == JobState::kRunning) {
    // Cooperative: the pipeline observes the token at its next poll
    // point and lands in kCancelled via the DeadlineExceeded taxonomy.
    if (job.token) job.token->request_cancel();
    return true;
  }
  if (job.status.state != JobState::kQueued) return false;
  // Absent only when shutdown has taken it off the queue to cancel it.
  auto& queue = tenants_[job.request.tenant].queue;
  const auto queued = std::find(queue.begin(), queue.end(), id);
  if (queued != queue.end()) {
    queue.erase(queued);
    --queued_total_;
  }
  Ending ending;
  ending.state = JobState::kCancelled;
  ending.message = "cancelled while queued";
  finish(lock, id, std::move(ending));
  return true;
}

bool JobScheduler::terminal_locked(std::uint64_t id) const {
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return true;  // treat unknown as "nothing to wait on"
  const JobState state = it->second.status.state;
  return state == JobState::kDone || state == JobState::kFailed ||
         state == JobState::kCancelled;
}

bool JobScheduler::wait(std::uint64_t id) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (jobs_.find(id) == jobs_.end()) return false;
  done_cv_.wait(lock, [&] { return terminal_locked(id); });
  return true;
}

SchedulerStats JobScheduler::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  SchedulerStats out = stats_;
  out.queued = queued_total_;
  out.cache = cache_->stats();
  out.watch_contexts = contexts_.size();
  for (const auto& [name, state] : tenants_) {
    TenantCounters counters = state.counters;
    counters.queued = state.queue.size();
    counters.running = state.running;
    out.tenants.emplace(name, counters);
  }
  return out;
}

void JobScheduler::set_tenant_table(TenantTable table) {
  cache_->set_tenant_shares(table.cache_shares());
  const std::lock_guard<std::mutex> lock(mutex_);
  options_.tenants = std::move(table);
  // Caps may have loosened: blocked workers re-evaluate eligibility.
  work_cv_.notify_all();
}

std::vector<std::shared_ptr<const PatchContext>>
JobScheduler::prime_context_locked(
    const std::string& key_hex, const std::string& tenant,
    std::shared_ptr<const PatchContext> context) {
  std::vector<std::shared_ptr<const PatchContext>> released;
  if (options_.watch_context_capacity == 0 || context == nullptr) {
    return released;
  }
  WatchContext& slot = contexts_[key_hex];
  if (slot.context != nullptr) released.push_back(std::move(slot.context));
  slot.context = std::move(context);
  slot.tenant = tenant;
  slot.last_used = ++context_counter_;
  while (contexts_.size() > options_.watch_context_capacity) {
    // Linear LRU scan: the capacity is single-digit by design, so an
    // ordered recency index would be pure ceremony.
    auto victim = contexts_.begin();
    for (auto it = std::next(contexts_.begin()); it != contexts_.end();
         ++it) {
      if (it->second.last_used < victim->second.last_used) victim = it;
    }
    released.push_back(std::move(victim->second.context));
    contexts_.erase(victim);
  }
  return released;
}

void JobScheduler::shutdown(ShutdownMode mode) {
  std::vector<std::thread> workers;
  std::vector<std::uint64_t> cancelled;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (shut_down_) return;
    shut_down_ = true;  // no further admissions
    if (mode == ShutdownMode::kCancelPending) {
      for (auto& [name, tenant] : tenants_) {
        cancelled.insert(cancelled.end(), tenant.queue.begin(),
                         tenant.queue.end());
        tenant.queue.clear();
      }
      queued_total_ = 0;
      stopping_ = true;
    } else {
      draining_ = true;
    }
    workers.swap(workers_);
    work_cv_.notify_all();
  }
  for (const std::uint64_t id : cancelled) {
    std::unique_lock<std::mutex> lock(mutex_);
    // A cancel() may have finished it since it left its queue.
    if (jobs_.at(id).status.state != JobState::kQueued) continue;
    Ending ending;
    ending.state = JobState::kCancelled;
    ending.message = "cancelled at shutdown";
    finish(lock, id, std::move(ending));
  }
  for (std::thread& worker : workers) worker.join();
}

void JobScheduler::journal_state(const JobStatus& status,
                                 std::uint64_t secondary) {
  // Listener before journal: subscribers learn the transition even when
  // the fsync below takes its time (or no journal is attached at all).
  if (options_.state_listener) options_.state_listener(status);
  if (options_.journal == nullptr) return;
  (void)options_.journal->append_state(status, secondary, nullptr);
}

bool JobScheduler::dispatchable_locked() const {
  for (const auto& [name, tenant] : tenants_) {
    if (tenant.queue.empty()) continue;
    const TenantQuota& quota = options_.tenants.quota_for(name);
    if (quota.max_concurrent <= 0 ||
        tenant.running < static_cast<std::size_t>(quota.max_concurrent)) {
      return true;
    }
  }
  return false;
}

std::optional<std::uint64_t> JobScheduler::pick_job_locked() {
  const auto eligible = [&](const TenantState& tenant,
                            const std::string& name) {
    if (tenant.queue.empty()) return false;
    const TenantQuota& quota = options_.tenants.quota_for(name);
    return quota.max_concurrent <= 0 ||
           tenant.running < static_cast<std::size_t>(quota.max_concurrent);
  };
  const auto take = [&](TenantState& tenant) {
    const std::uint64_t id = tenant.queue.front();
    tenant.queue.pop_front();
    --queued_total_;
    return id;
  };

  // Spend the current holder's remaining quantum first: this is what makes
  // the rotation WEIGHTED — a weight-w tenant drains w jobs back to back
  // before the token moves on. A tenant that empties its queue or hits its
  // concurrency cap forfeits the rest of its quantum (deficit never
  // accumulates across idle periods, so a returning tenant cannot burst
  // past its weight).
  if (drr_credit_ > 0) {
    const auto it = tenants_.find(drr_current_);
    if (it != tenants_.end() && eligible(it->second, it->first)) {
      --drr_credit_;
      return take(it->second);
    }
    drr_credit_ = 0;
  }

  // Rotate to the next eligible tenant in lexicographic cycle order,
  // starting AFTER the current holder — one full wrap visits everyone, so
  // a saturating tenant can delay an idle tenant's first job by at most
  // the quanta of tenants between them, never indefinitely.
  auto it = tenants_.upper_bound(drr_current_);
  for (std::size_t step = 0; step < tenants_.size(); ++step, ++it) {
    if (it == tenants_.end()) it = tenants_.begin();
    if (!eligible(it->second, it->first)) continue;
    drr_current_ = it->first;
    drr_credit_ = options_.tenants.quota_for(it->first).weight - 1;
    if (drr_credit_ < 0) drr_credit_ = 0;
    return take(it->second);
  }
  return std::nullopt;
}

void JobScheduler::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [&] {
      return stopping_ || (draining_ && queued_total_ == 0) ||
             dispatchable_locked();
    });
    if (stopping_) return;
    const auto picked = pick_job_locked();
    if (!picked) {
      if (draining_ && queued_total_ == 0) return;
      continue;
    }
    const std::uint64_t id = *picked;
    Job& job = jobs_.at(id);
    job.status.state = JobState::kRunning;
    const std::string tenant_name = job.request.tenant;
    ++tenants_[tenant_name].running;
    ++stats_.running;
    lock.unlock();
    execute(id);
    lock.lock();
    --stats_.running;
    --tenants_[tenant_name].running;
    // A slot under this tenant's concurrency cap just freed; a worker may
    // be parked waiting for exactly that.
    work_cv_.notify_all();
  }
}

void JobScheduler::finish(std::unique_lock<std::mutex>& lock,
                          std::uint64_t id, Ending ending) {
  Job& job = jobs_.at(id);
  // What result() never returns leaves the job table here and is freed
  // when this returns, after the notification: the job's inputs, the
  // published original (the cache keeps it for resubmits) and the watch
  // contexts that installing this job's context replaced or evicted.
  const std::shared_ptr<const ConfigSet> inputs = std::move(job.canonical);
  const std::string original = std::move(ending.artifacts.original_configs);
  std::vector<std::shared_ptr<const PatchContext>> released;
  JobStatus& status = job.status;
  status.state = ending.state;
  if (ending.state == JobState::kDone) {
    released = prime_context_locked(job.key.hex(), job.request.tenant,
                                    std::move(ending.context));
    job.result.artifacts = std::move(ending.artifacts);
    job.result.cache_hit = ending.cache_hit;
    status.cache_hit = ending.cache_hit;
    status.patched = ending.patched;
    ++stats_.completed;
    ++tenants_[job.request.tenant].counters.completed;
  } else {
    if (ending.diagnostics) {
      const PipelineDiagnostics& diag = *ending.diagnostics;
      job.failure_diagnostics = diagnostics_to_json(diag);
      status.error_stage = to_string(diag.stage);
      status.error_category = to_string(diag.category);
      status.error_message = diag.message;
      status.exit_code = exit_code_for(diag.category);
    } else {
      status.error_message = std::move(ending.message);
    }
    if (ending.state == JobState::kCancelled) {
      ++stats_.cancelled;
    } else {
      ++stats_.failed;
      if (ending.diagnostics &&
          ending.diagnostics->category == ErrorCategory::kDeadlineExceeded) {
        ++stats_.deadline_exceeded;
      }
    }
  }
  stats_.simulations += ending.simulations;
  done_cv_.notify_all();
  const JobStatus snapshot = status;
  const std::uint64_t secondary = job.key.secondary;
  lock.unlock();
  journal_state(snapshot, secondary);
}

void JobScheduler::execute(std::uint64_t id) {
  // After submit, a job's request/canonical/key/token fields are immutable
  // and this worker is the only writer of its result — so they are safe to
  // read unlocked while the pipeline runs. Status transitions stay locked.
  // The admission-time bundle text moves out here, once, for the artifact.
  const Job* job = nullptr;
  JobStatus running_snapshot;
  std::string original_text;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    Job& running = jobs_.at(id);
    job = &running;
    running_snapshot = job->status;
    original_text = std::move(running.canonical_text);
  }
  journal_state(running_snapshot, job->key.secondary);
  const CancelToken* token = job->token.get();
  Ending ending;

  // An expired-in-queue deadline (or a pre-dequeue cancel) terminates the
  // job before ANY work — including the cache probe: the deadline contract
  // is "DeadlineExceeded, deterministically", not "maybe a lucky hit".
  const CancelToken::Reason early =
      token != nullptr ? token->fired() : CancelToken::Reason::kNone;
  if (early != CancelToken::Reason::kNone) {
    PipelineDiagnostics& diag = ending.diagnostics.emplace();
    diag.ok = false;
    diag.stage = PipelineStage::kPreprocess;
    diag.category = ErrorCategory::kDeadlineExceeded;
    diag.message = early == CancelToken::Reason::kDeadline
                       ? "deadline expired before the job started"
                       : "cancelled before the job started";
    diag.context.detail = std::string("reason=") + to_string(early);
    ending.state = early == CancelToken::Reason::kCancelled
                       ? JobState::kCancelled
                       : JobState::kFailed;
    std::unique_lock<std::mutex> lock(mutex_);
    finish(lock, id, std::move(ending));
    return;
  }

  // Single-flight: elect one leader per primary digest. Followers park
  // here (still occupying their worker slot — the slot IS the work) until
  // the leader publishes or gives up, then re-probe the cache: N identical
  // concurrent jobs cost one fetch/compute plus N-1 local cache reads.
  bool waited_behind_leader = false;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    while (inflight_keys_.count(job->key.primary) != 0) {
      waited_behind_leader = true;
      flight_cv_.wait(lock);
    }
    inflight_keys_.insert(job->key.primary);
  }
  struct FlightRelease {
    JobScheduler* scheduler;
    std::uint64_t key;
    ~FlightRelease() {
      const std::lock_guard<std::mutex> lock(scheduler->mutex_);
      scheduler->inflight_keys_.erase(key);
      scheduler->flight_cv_.notify_all();
    }
  } release{this, job->key.primary};

  if (auto cached = cache_->lookup(job->key)) {
    ending.artifacts = std::move(*cached);
    ending.cache_hit = true;
    std::unique_lock<std::mutex> lock(mutex_);
    if (waited_behind_leader) ++stats_.coalesced_jobs;
    finish(lock, id, std::move(ending));
    return;
  }

  // Peer lookup: when the key's rendezvous owner is another fleet member,
  // ask it before computing. Any fetch outcome short of a validated
  // bundle — owner lacks the entry, transport failure, deadline — falls
  // through to local compute: peer trouble costs latency, never the job.
  if (options_.ring != nullptr && !options_.ring->solo() &&
      options_.peer_fetch) {
    const std::string owner = options_.ring->owner(job->key.primary);
    if (owner != options_.ring->self()) {
      auto fetched =
          options_.peer_fetch(owner, job->key, job->request.tenant);
      // An unpublishable fetch degrades to compute too: completing from
      // bytes the local cache never accepted would let a flaky disk
      // desynchronize acks from content addressing.
      std::string store_error;
      if (fetched && cache_->store(job->key, *fetched, &store_error,
                                   job->request.tenant) !=
                         StoreResult::kIoError) {
        ending.artifacts = std::move(*fetched);
        ending.cache_hit = true;
        std::unique_lock<std::mutex> lock(mutex_);
        ++stats_.peer_hits;
        ++tenants_[job->request.tenant].counters.peer_hits;
        finish(lock, id, std::move(ending));
        return;
      }
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.peer_misses;
    }
  }

  // Thread-scoped trace: this worker is the orchestration thread of its
  // pipeline, so the trace captures exactly this job's spans even while
  // sibling workers run their own traced pipelines. Non-default tenants
  // prefix the tag, so the --trace stream stays attributable to their
  // namespace as well as their job.
  JobTraceSink trace_sink(options_.trace_listener, id);
  PipelineTrace::Options trace_options;
  if (options_.trace_listener) trace_options.shared_sink = &trace_sink;
  trace_options.tag = job->request.tenant == kDefaultTenant
                          ? "job-" + std::to_string(id)
                          : job->request.tenant + "/job-" + std::to_string(id);
  trace_options.scope = PipelineTrace::Options::Scope::kThread;
  PipelineTrace trace(trace_options);

  // Watch context: a resubmit carries the base entry's key as a patch
  // hint. If that job's captured pipeline state is still resident, offer
  // it to the pipeline — which reuses it stage by stage only where a
  // verified filter-only diff proves the entry simulation would come out
  // bit-identical, and silently runs cold otherwise.
  std::shared_ptr<const PatchContext> patch_base_context;
  if (!job->patch_base.empty()) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = contexts_.find(job->patch_base);
    if (it != contexts_.end()) {
      it->second.last_used = ++context_counter_;
      patch_base_context = it->second.context;
    }
  }
  // The captured context shares the job's bundle instead of copying it.
  PatchCapture capture;
  capture.shared_original = job->canonical;

  const std::uint64_t sims_before = Simulation::runs_on_this_thread();
  GuardedPipelineResult run = run_pipeline_guarded(
      *job->canonical, job->request.options, RetryPolicy{}, token,
      patch_base_context.get(), &capture);
  ending.simulations = Simulation::runs_on_this_thread() - sims_before;

  if (!run.ok()) {
    // A DeadlineExceeded diagnostic means OUR token fired; the token's
    // reason distinguishes an operator cancel (kCancelled, by request) from
    // a deadline expiry (kFailed — the job ran out of time on its own).
    const bool was_cancel =
        run.diagnostics.category == ErrorCategory::kDeadlineExceeded &&
        token != nullptr && token->fired() == CancelToken::Reason::kCancelled;
    ending.state = was_cancel ? JobState::kCancelled : JobState::kFailed;
    ending.diagnostics = std::move(run.diagnostics);
    std::unique_lock<std::mutex> lock(mutex_);
    finish(lock, id, std::move(ending));
    return;
  }

  ending.patched = run.result->stats.patched_stages > 0;
  CacheArtifacts& artifacts = ending.artifacts;
  artifacts.anonymized_configs =
      canonical_config_set_text(run.result->anonymized);
  artifacts.original_configs = std::move(original_text);
  artifacts.diagnostics_json = diagnostics_to_json(run.diagnostics);
  artifacts.metrics_json = trace.metrics_json(/*include_timings=*/false);
  std::string store_error;
  const bool published = cache_->store(job->key, artifacts, &store_error,
                                       job->request.tenant) !=
                         StoreResult::kIoError;
  if (!published) {
    // The pipeline succeeded but the artifacts could not be durably
    // published (ENOSPC, torn write, fsync failure). The JOB fails —
    // returning unpublishable results would desynchronize the cache from
    // the acks — but the daemon itself keeps serving. Its diagnostics are
    // the run's own (attempts, fallbacks, phases), marked failed.
    ending.state = JobState::kFailed;
    PipelineDiagnostics& diag = ending.diagnostics.emplace(
        std::move(run.diagnostics));
    diag.ok = false;
    diag.stage = PipelineStage::kVerification;
    diag.category = ErrorCategory::kResourceExhausted;
    diag.message = "artifact publish failed: " + store_error;
  } else if (options_.watch_context_capacity > 0) {
    // Re-base the captured stage state into a resident context for future
    // resubmits against THIS job. Deliberately after the simulations are
    // counted (the re-basing simulations are bookkeeping, not job work)
    // and only for durably published artifacts — a context keyed by an
    // unpublished entry could never be named by a resubmit.
    ending.context = finish_capture(capture);
  }

  std::unique_lock<std::mutex> lock(mutex_);
  if (published && !job->patch_base.empty()) {
    if (patch_base_context == nullptr) {
      ++stats_.watch_context_misses;
    } else if (ending.patched) {
      ++stats_.patched_jobs;
    } else {
      ++stats_.patch_fallbacks;
    }
  }
  finish(lock, id, std::move(ending));
}

}  // namespace confmask
