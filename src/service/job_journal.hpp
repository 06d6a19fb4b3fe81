// Durable write-ahead job journal: why confmaskd survives kill -9.
//
// The scheduler's queue and job table live in memory; without a journal, a
// crash silently drops every job the daemon already ACKNOWLEDGED. The
// journal closes that hole with a write-ahead contract:
//
//   1. Before a submission is acknowledged, its full request (canonical
//      config bundle + every pipeline parameter + deadline) is appended to
//      the journal and fsync'd. The ack implies durability.
//   2. State transitions (running, done/failed/cancelled) are appended as
//      the job progresses. Transition appends are also fsync'd, but a lost
//      transition is harmless: replay just re-runs the job, and the
//      content-addressed cache makes the re-run converge to the same
//      artifact bytes.
//   3. On startup, recovery replays the journal: non-terminal jobs are
//      re-enqueued under their original ids; terminal jobs are compacted
//      to tombstones (id + terminal status) so status queries for old ids
//      keep answering; a torn tail (the record being written when power
//      died) is detected by per-record CRC and truncated away.
//
// Format: NDJSON of flat JSON lines (json_line.hpp grammar — the same
// parser as the wire protocol and cache metadata, so there is exactly one
// JSON dialect in the system). Every record carries a trailing "crc" field:
// FNV-1a/64 over the record's serialization WITHOUT the crc field. Because
// the writer always emits "crc" last and string values escape quotes, the
// raw byte sequence `, "crc": "` cannot appear inside any value, making
// the split-point unambiguous.
//
// Record types ("type" field):
//   header     {format: "confmask.journal/1", stamp}   first line, always
//   submit     full JobRequest + id + cache key        the WAL record
//   state      id + JobState (+ cache_hit / error taxonomy when terminal)
//   tombstone  compacted terminal job (id + final JobStatus)
//
// All appends go through io_shim (write_all + fsync), so every durability
// path here is torn-write/ENOSPC/fsync-failure injectable and tested.
#pragma once

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/service/job_scheduler.hpp"

namespace confmask {

/// A non-terminal job reconstructed from the journal, ready to re-enqueue.
struct RecoveredJob {
  std::uint64_t id = 0;
  JobRequest request;
  /// canonical_config_set_text(request.configs), rendered once by
  /// recovery for the key check, the compacted record and the job.
  std::string canonical_text;
  /// job_key of the decoded request. Recovery verifies it against the
  /// recorded key; a mismatch means the record decoded into a different
  /// request than was journaled, and the job is failed instead of
  /// silently executing the wrong thing.
  CacheKey key;
};

/// A terminal job compacted to its final status (artifacts, if any, live
/// in the cache under `secondary`-verified `status.cache_key`).
struct JournalTombstone {
  JobStatus status;
  std::uint64_t secondary = 0;  ///< collision guard of the cached entry
};

/// Everything startup recovery learned from the journal.
struct JournalRecovery {
  std::vector<RecoveredJob> pending;      ///< re-enqueue, in id order
  std::vector<JournalTombstone> terminal; ///< restore as terminal jobs
  std::uint64_t next_id = 1;              ///< max id seen + 1
  std::uint64_t truncated_bytes = 0;      ///< torn tail dropped, if any
  std::uint64_t replayed_records = 0;     ///< valid records replayed
  std::uint64_t dropped_records = 0;      ///< undecodable records skipped
};

struct JournalStats {
  std::uint64_t appends = 0;
  std::uint64_t append_failures = 0;
  std::uint64_t replayed_records = 0;
  std::uint64_t recovered_pending = 0;
  std::uint64_t tombstones = 0;
  std::uint64_t truncated_bytes = 0;
};

/// Thread-safe append-only journal. Construction performs recovery and
/// compaction; the result is available via recovery() until the scheduler
/// consumes it. All appends are synchronous and fsync'd — an append that
/// returns true is on disk.
class JobJournal {
 public:
  /// Opens (creating if absent) the journal at `path`: reads and CRC-checks
  /// every record, truncates a torn tail, compacts terminal jobs to
  /// tombstones (keeping at most `max_tombstones` most recent), rewrites
  /// the compacted journal atomically (temp + rename + dir fsync), and
  /// reopens it for appending. Throws std::runtime_error only when the
  /// journal cannot be made writable at all (unusable path) — corrupt
  /// contents are recovered from, never fatal.
  explicit JobJournal(std::filesystem::path path,
                      std::size_t max_tombstones = 256);
  ~JobJournal();

  JobJournal(const JobJournal&) = delete;
  JobJournal& operator=(const JobJournal&) = delete;

  /// What recovery found. Stable after construction.
  [[nodiscard]] const JournalRecovery& recovery() const { return recovery_; }

  /// Appends + fsyncs the write-ahead record for an accepted submission.
  /// `canonical_text` is canonical_config_set_text(request.configs), which
  /// admission has already rendered for the cache key. False (with *error
  /// filled) on any I/O failure — the caller must then REJECT the
  /// submission: acknowledging a job the journal never saw would break the
  /// durability contract.
  [[nodiscard]] bool append_submit(std::uint64_t id, const JobRequest& request,
                                   const CacheKey& key,
                                   std::string_view canonical_text,
                                   std::string* error = nullptr);
  /// The same, rendering the canonical text of request.configs itself.
  [[nodiscard]] bool append_submit(std::uint64_t id, const JobRequest& request,
                                   const CacheKey& key,
                                   std::string* error = nullptr);

  /// Appends + fsyncs a state transition. False on I/O failure; callers
  /// may continue (replay re-runs the job and converges via the cache).
  [[nodiscard]] bool append_state(const JobStatus& status,
                                  std::uint64_t secondary,
                                  std::string* error = nullptr);

  [[nodiscard]] JournalStats stats() const;
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

  /// Serialization helpers, exposed for tests (round-trip assertions) and
  /// recovery. encode_* emit complete journal lines (with CRC, no trailing
  /// newline).
  [[nodiscard]] static std::string encode_submit(
      std::uint64_t id, const JobRequest& request, const CacheKey& key,
      std::string_view canonical_text);
  [[nodiscard]] static std::string encode_state(const JobStatus& status,
                                                std::uint64_t secondary);
  /// Verifies the CRC of one journal line. False = torn/corrupt.
  [[nodiscard]] static bool crc_ok(std::string_view line);

 private:
  /// Writes `line` plus its newline and fsyncs. Caller holds mutex_.
  [[nodiscard]] bool append_line_locked(std::string line, std::string* error);
  void recover_and_compact(std::size_t max_tombstones);

  std::filesystem::path path_;
  JournalRecovery recovery_;
  mutable std::mutex mutex_;
  int fd_ = -1;
  JournalStats stats_;
};

}  // namespace confmask
