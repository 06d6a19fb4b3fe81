// Cooperative cancellation and deadlines for long-running pipeline work.
//
// A CancelToken is an out-of-band kill switch: the owner (the job
// scheduler, a CLI signal handler) arms it — by explicit request_cancel()
// or by setting a deadline — and the running pipeline polls it at safe
// points. "Safe points" are the natural round boundaries of the engine:
// the top of every Algorithm-1 iteration, every Algorithm-2 rollback
// round, every Simulation build, and every guarded-runner attempt. Between
// polls the work is uninterruptible by design — tearing a simulation down
// mid-fanout would leave no consistent state to report — so cancellation
// latency is bounded by one phase, never by the whole job.
//
// Polling is ambient rather than parameter-threaded: installing a
// CancelScope on the orchestration thread makes the token visible to every
// poll_cancellation() call beneath it (the same thread-scoped pattern as
// PipelineTrace). Deep layers stay signature-stable, and code running
// without a scope polls for free against a null token. Pool worker threads
// never poll — only the orchestration thread does, which is what bounds
// the stop to a phase boundary.
//
// A fired poll throws OperationCancelled, which the error taxonomy
// (core/errors.hpp) translates into the DeadlineExceeded category:
// non-retryable, never cached, fail-closed like every other failure.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>

namespace confmask {

class CancelToken {
 public:
  enum class Reason {
    kNone,       ///< not fired
    kCancelled,  ///< explicit request_cancel()
    kDeadline,   ///< the deadline passed
  };

  /// Fires the token permanently. Safe from any thread, any time.
  void request_cancel() noexcept {
    cancelled_.store(true, std::memory_order_release);
  }

  /// Arms a deadline `budget_ms` milliseconds from now. The token fires
  /// once steady_clock passes it. 0, or a budget past the latest time
  /// steady_clock can represent, means no deadline.
  void set_deadline_after(std::uint64_t budget_ms) noexcept {
    using namespace std::chrono;
    const steady_clock::time_point now = steady_clock::now();
    const auto headroom =
        floor<milliseconds>(steady_clock::time_point::max() - now).count();
    if (budget_ms == 0 || budget_ms > static_cast<std::uint64_t>(headroom)) {
      return;
    }
    const auto when = now + milliseconds(static_cast<std::int64_t>(budget_ms));
    deadline_ns_.store(when.time_since_epoch().count(),
                       std::memory_order_release);
  }

  /// Why the token has fired (kNone if it has not). An explicit cancel
  /// wins over a simultaneously-expired deadline — the operator asked.
  [[nodiscard]] Reason fired() const noexcept {
    if (cancelled_.load(std::memory_order_acquire)) return Reason::kCancelled;
    const auto deadline = deadline_ns_.load(std::memory_order_acquire);
    if (deadline != 0 &&
        std::chrono::steady_clock::now().time_since_epoch().count() >=
            deadline) {
      return Reason::kDeadline;
    }
    return Reason::kNone;
  }

 private:
  std::atomic<bool> cancelled_{false};
  /// steady_clock deadline as raw since-epoch ticks; 0 = none.
  std::atomic<std::chrono::steady_clock::rep> deadline_ns_{0};
};

[[nodiscard]] const char* to_string(CancelToken::Reason reason);

/// Thrown by poll_cancellation() when the ambient token has fired. Deep
/// layers let it escape; the stage-boundary translator maps it to the
/// DeadlineExceeded error category with the reason preserved.
class OperationCancelled : public std::runtime_error {
 public:
  explicit OperationCancelled(CancelToken::Reason reason);
  [[nodiscard]] CancelToken::Reason reason() const { return reason_; }

 private:
  CancelToken::Reason reason_;
};

/// RAII install of `token` as this thread's ambient cancellation token.
/// Scopes nest; the previous token is restored on destruction. A null
/// token is a valid (never-firing) scope.
class CancelScope {
 public:
  explicit CancelScope(const CancelToken* token) noexcept;
  ~CancelScope();

  CancelScope(const CancelScope&) = delete;
  CancelScope& operator=(const CancelScope&) = delete;

  /// The innermost token installed on this thread (nullptr outside any
  /// scope).
  [[nodiscard]] static const CancelToken* current() noexcept;

 private:
  const CancelToken* previous_;
};

/// Polls the ambient token; throws OperationCancelled iff it has fired.
/// One relaxed pointer read + one atomic load when un-fired — cheap enough
/// for every round boundary.
void poll_cancellation();

}  // namespace confmask
