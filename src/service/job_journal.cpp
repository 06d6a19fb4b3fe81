#include "src/service/job_journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <stdexcept>
#include <utility>

#include "src/config/emit.hpp"
#include "src/config/parse.hpp"
#include "src/service/json_line.hpp"
#include "src/util/build_info.hpp"
#include "src/util/hash.hpp"
#include "src/util/io_shim.hpp"

namespace confmask {

namespace fs = std::filesystem;

namespace {

constexpr const char* kFormat = "confmask.journal/1";
/// Always written last by the encoders; string values escape quotes, so
/// this raw byte sequence cannot occur inside any value.
constexpr std::string_view kCrcMarker = ", \"crc\": \"";

/// The finished record with its crc field appended: the digest covers the
/// line as written so far, hashed in place, and the field is spliced in
/// before the closing brace exactly as crc_ok reads it back.
std::string with_crc(JsonWriter& writer) {
  std::string line = std::move(writer).str();
  const std::uint64_t crc = fnv1a64(line);
  line.pop_back();
  line += kCrcMarker;
  line += hex64(crc);
  line += "\"}";
  return line;
}

std::optional<JobState> parse_job_state(const std::string& name) {
  if (name == "queued") return JobState::kQueued;
  if (name == "running") return JobState::kRunning;
  if (name == "done") return JobState::kDone;
  if (name == "failed") return JobState::kFailed;
  if (name == "cancelled") return JobState::kCancelled;
  return std::nullopt;
}

bool is_terminal(JobState state) {
  return state == JobState::kDone || state == JobState::kFailed ||
         state == JobState::kCancelled;
}

/// Decodes a CRC-valid submit record back into the JobRequest it encoded.
/// nullopt = the record is from an incompatible writer or lost a field.
std::optional<JobRequest> decode_submit(const JsonObject& record) {
  const auto configs_text = get_string(record, "configs");
  if (!configs_text) return std::nullopt;
  JobRequest request;
  try {
    request.configs = parse_config_set(*configs_text);
  } catch (const std::exception&) {
    return std::nullopt;
  }

  const auto k_r = get_int(record, "k_r");
  const auto k_h = get_int(record, "k_h");
  const auto noise_p = get_double(record, "noise_p");
  const auto seed = get_u64(record, "seed");
  const auto fake_routers = get_int(record, "fake_routers");
  const auto links_per = get_int(record, "links_per_fake_router");
  const auto cost_policy = get_string(record, "cost_policy");
  const auto deadline = get_u64(record, "deadline_ms");
  if (!k_r || !k_h || !noise_p || !seed || !fake_routers || !links_per ||
      !cost_policy || !deadline) {
    return std::nullopt;
  }
  request.options.k_r = static_cast<int>(*k_r);
  request.options.k_h = static_cast<int>(*k_h);
  request.options.noise_p = *noise_p;
  request.options.seed = *seed;
  request.options.fake_routers = static_cast<int>(*fake_routers);
  request.options.links_per_fake_router = static_cast<int>(*links_per);
  request.deadline_ms = *deadline;
  // Older records also carry an `incremental` flag, which no output byte
  // depended on, and the retired `max_equivalence_iterations` and retry
  // policy (the `rp_*` fields). All are ignored, as is the Step 2.1 name
  // every record carries (encode_submit). The keys covered all but the
  // flag, so a record whose values were not the defaults (a strawman
  // among them) fails recovery's key check and is tombstoned.
  // Pre-fleet journals carry no tenant field; their jobs belong to the
  // default namespace, same as a request that names none.
  request.tenant = get_string(record, "tenant").value_or("default");

  const auto parsed_policy = parse_cost_policy(*cost_policy);
  if (!parsed_policy) return std::nullopt;
  request.options.cost_policy = *parsed_policy;

  if (const auto pool = get_string(record, "link_pool")) {
    const auto prefix = Ipv4Prefix::parse(*pool);
    if (!prefix) return std::nullopt;
    request.options.link_pool = *prefix;
  }
  if (const auto pool = get_string(record, "host_pool")) {
    const auto prefix = Ipv4Prefix::parse(*pool);
    if (!prefix) return std::nullopt;
    request.options.host_pool = *prefix;
  }
  return request;
}

/// Decodes the status payload shared by state and tombstone records.
std::optional<JournalTombstone> decode_status(const JsonObject& record) {
  const auto id = get_u64(record, "job");
  const auto state_name = get_string(record, "state");
  const auto key = get_string(record, "key");
  const auto secondary_hex = get_string(record, "secondary");
  if (!id || !state_name || !key || !secondary_hex) return std::nullopt;
  const auto state = parse_job_state(*state_name);
  const auto secondary = parse_hex64(*secondary_hex);
  if (!state || !secondary) return std::nullopt;

  JournalTombstone out;
  out.status.id = *id;
  out.status.state = *state;
  out.status.cache_key = *key;
  out.status.tenant = get_string(record, "tenant").value_or("default");
  out.status.cache_hit = get_bool(record, "cache_hit").value_or(false);
  out.status.error_stage = get_string(record, "error_stage").value_or("");
  out.status.error_category =
      get_string(record, "error_category").value_or("");
  out.status.error_message = get_string(record, "error_message").value_or("");
  out.status.exit_code =
      static_cast<int>(get_int(record, "exit_code").value_or(0));
  out.secondary = *secondary;
  return out;
}

std::string encode_header() {
  JsonWriter writer;
  writer.string("type", "header")
      .string("format", kFormat)
      .string("stamp", build_stamp());
  return with_crc(writer);
}

std::string encode_status(std::string_view type, const JobStatus& status,
                          std::uint64_t secondary) {
  JsonWriter writer;
  writer.string("type", type)
      .number_u64("job", status.id)
      .string("tenant", status.tenant)
      .string("state", to_string(status.state))
      .string("key", status.cache_key)
      .string("secondary", hex64(secondary))
      .boolean("cache_hit", status.cache_hit);
  if (status.state == JobState::kFailed ||
      status.state == JobState::kCancelled) {
    writer.string("error_stage", status.error_stage)
        .string("error_category", status.error_category)
        .string("error_message", status.error_message)
        .number("exit_code", status.exit_code);
  }
  return with_crc(writer);
}

/// A synthetic terminal status for a journaled job whose submit record
/// cannot be decoded (or whose recomputed key disagrees): the client gets
/// a loud failure instead of a silently-vanished id.
JournalTombstone failed_tombstone(std::uint64_t id, const std::string& key,
                                  std::uint64_t secondary,
                                  std::string message) {
  JournalTombstone out;
  out.status.id = id;
  out.status.state = JobState::kFailed;
  out.status.cache_key = key;
  out.status.error_stage = "Preprocess";
  out.status.error_category = "Internal";
  out.status.error_message = std::move(message);
  out.status.exit_code = 14;
  out.secondary = secondary;
  return out;
}

}  // namespace

std::string JobJournal::encode_submit(std::uint64_t id,
                                      const JobRequest& request,
                                      const CacheKey& key,
                                      std::string_view canonical_text) {
  JsonWriter writer;
  writer.string("type", "submit")
      .number_u64("job", id)
      .string("tenant", request.tenant)
      .string("key", key.hex())
      .string("secondary", hex64(key.secondary))
      .string("configs", canonical_text)
      .number("k_r", request.options.k_r)
      .number("k_h", request.options.k_h)
      .real("noise_p", request.options.noise_p)
      .number_u64("seed", request.options.seed)
      .string("cost_policy", to_string(request.options.cost_policy))
      .number("fake_routers", request.options.fake_routers)
      .number("links_per_fake_router",
              request.options.links_per_fake_router)
      // Every job runs ConfMask's Step 2.1. The literal keeps records
      // byte-identical, and readable by daemons that still require it.
      .string("strategy", "confmask")
      .number_u64("deadline_ms", request.deadline_ms);
  if (request.options.link_pool) {
    writer.string("link_pool", request.options.link_pool->str());
  }
  if (request.options.host_pool) {
    writer.string("host_pool", request.options.host_pool->str());
  }
  return with_crc(writer);
}

std::string JobJournal::encode_state(const JobStatus& status,
                                     std::uint64_t secondary) {
  return encode_status("state", status, secondary);
}

bool JobJournal::crc_ok(std::string_view line) {
  const std::size_t pos = line.rfind(kCrcMarker);
  if (pos == std::string_view::npos) return false;
  // The crc field is always last: 16 hex digits, a closing quote, and the
  // object's closing brace. Anything else is a torn or foreign line.
  const std::string_view tail = line.substr(pos + kCrcMarker.size());
  if (tail.size() != 16 + 2 || tail.substr(16) != "\"}") return false;
  const auto recorded = parse_hex64(tail.substr(0, 16));
  if (!recorded) return false;
  // The digest covers the line without the crc field, closed again.
  Fnv1a64 hasher;
  hasher.update(line.substr(0, pos));
  hasher.update("}");
  return hasher.value() == *recorded;
}

JobJournal::JobJournal(fs::path path, std::size_t max_tombstones)
    : path_(std::move(path)) {
  if (path_.has_parent_path()) {
    std::error_code ec;
    fs::create_directories(path_.parent_path(), ec);
  }
  recover_and_compact(max_tombstones);
}

JobJournal::~JobJournal() {
  if (fd_ >= 0) ::close(fd_);
}

void JobJournal::recover_and_compact(std::size_t max_tombstones) {
  // --- Phase 1: read and CRC-check the existing journal, if any. ---------
  std::string raw;
  if (auto existing = io::read_file(path_)) raw = std::move(*existing);

  struct ReplayedJob {
    std::optional<JsonObject> submit;  ///< latest CRC-valid submit record
    std::optional<JournalTombstone> last_status;
  };
  std::map<std::uint64_t, ReplayedJob> replay;

  std::size_t consumed = 0;
  while (consumed < raw.size()) {
    const std::size_t newline = raw.find('\n', consumed);
    if (newline == std::string::npos) break;  // partial final line: torn
    const std::string_view line(raw.data() + consumed, newline - consumed);
    // WAL discipline: the first record that fails its CRC marks the torn
    // tail. NOTHING after it can be trusted (a torn write may have eaten
    // an unknowable amount of what followed), so recovery stops here.
    if (!crc_ok(line)) break;
    consumed = newline + 1;
    const auto record = parse_json_line(line);
    if (!record) {  // CRC ok but unparsable: same discipline
      consumed -= line.size() + 1;
      break;
    }
    ++recovery_.replayed_records;
    const auto type = get_string(*record, "type").value_or("");
    if (type == "header") continue;
    const auto id = get_u64(*record, "job");
    if (!id) {
      ++recovery_.dropped_records;
      continue;
    }
    if (type == "submit") {
      replay[*id].submit = *record;
    } else if (type == "state" || type == "tombstone") {
      if (auto status = decode_status(*record)) {
        replay[*id].last_status = std::move(*status);
      } else {
        ++recovery_.dropped_records;
      }
    } else {
      ++recovery_.dropped_records;
    }
  }
  recovery_.truncated_bytes = raw.size() - consumed;

  // --- Phase 2: classify every replayed job. ----------------------------
  for (auto& [id, job] : replay) {
    recovery_.next_id = std::max(recovery_.next_id, id + 1);
    const bool terminal =
        job.last_status && is_terminal(job.last_status->status.state);
    if (terminal) {
      recovery_.terminal.push_back(std::move(*job.last_status));
      continue;
    }
    if (!job.submit) {
      // A state record without its submit (and non-terminal): nothing to
      // re-run and nothing to report. Only possible via hand-edited or
      // partially-corrupt journals.
      ++recovery_.dropped_records;
      continue;
    }
    const std::string key_hex = get_string(*job.submit, "key").value_or("");
    const std::uint64_t secondary =
        parse_hex64(get_string(*job.submit, "secondary").value_or(""))
            .value_or(0);
    auto request = decode_submit(*job.submit);
    if (!request) {
      recovery_.terminal.push_back(failed_tombstone(
          id, key_hex, secondary,
          "journal submit record undecodable after crash recovery"));
      continue;
    }
    RecoveredJob recovered;
    recovered.id = id;
    recovered.canonical_text = canonical_config_set_text(request->configs);
    recovered.key = job_key(*request, recovered.canonical_text);
    // The recomputed key must match what submit-time keying produced; a
    // mismatch means decode(encode(request)) != request — executing it
    // would silently anonymize a DIFFERENT job under this id.
    if (recovered.key.hex() != key_hex ||
        recovered.key.secondary != secondary) {
      recovery_.terminal.push_back(failed_tombstone(
          id, key_hex, secondary,
          "journal submit record key mismatch after crash recovery"));
      continue;
    }
    recovered.request = std::move(*request);
    recovery_.pending.push_back(std::move(recovered));
  }
  std::sort(recovery_.pending.begin(), recovery_.pending.end(),
            [](const RecoveredJob& a, const RecoveredJob& b) {
              return a.id < b.id;
            });
  std::sort(recovery_.terminal.begin(), recovery_.terminal.end(),
            [](const JournalTombstone& a, const JournalTombstone& b) {
              return a.status.id < b.status.id;
            });
  // Tombstones are bounded so the journal cannot grow without limit over
  // the daemon's life; the OLDEST ids age out first.
  if (recovery_.terminal.size() > max_tombstones) {
    recovery_.terminal.erase(
        recovery_.terminal.begin(),
        recovery_.terminal.end() -
            static_cast<std::ptrdiff_t>(max_tombstones));
  }

  // --- Phase 3: rewrite the compacted journal atomically. ---------------
  std::string compacted = encode_header() + "\n";
  for (const JournalTombstone& tomb : recovery_.terminal) {
    compacted += encode_status("tombstone", tomb.status, tomb.secondary);
    compacted += "\n";
  }
  for (const RecoveredJob& job : recovery_.pending) {
    compacted +=
        encode_submit(job.id, job.request, job.key, job.canonical_text);
    compacted += "\n";
  }
  const fs::path tmp = path_.string() + ".compact";
  std::string error;
  if (!io::write_file_durable(tmp, compacted, &error)) {
    throw std::runtime_error("journal compaction write failed: " + error);
  }
  std::error_code ec;
  fs::rename(tmp, path_, ec);
  if (ec) {
    throw std::runtime_error("journal compaction rename failed: " +
                             ec.message());
  }
  if (path_.has_parent_path()) {
    (void)io::fsync_dir(path_.parent_path(), nullptr);
  }

  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND);
  if (fd_ < 0) {
    throw std::runtime_error("journal not writable: " + path_.string());
  }

  stats_.replayed_records = recovery_.replayed_records;
  stats_.recovered_pending = recovery_.pending.size();
  stats_.tombstones = recovery_.terminal.size();
  stats_.truncated_bytes = recovery_.truncated_bytes;
}

bool JobJournal::append_line_locked(std::string line, std::string* error) {
  line += '\n';
  if (!io::write_all(fd_, line.data(), line.size())) {
    ++stats_.append_failures;
    if (error != nullptr) {
      *error = std::string("journal write: ") + std::strerror(errno);
    }
    return false;
  }
  if (!io::fsync_fd(fd_)) {
    ++stats_.append_failures;
    if (error != nullptr) {
      *error = std::string("journal fsync: ") + std::strerror(errno);
    }
    return false;
  }
  ++stats_.appends;
  return true;
}

bool JobJournal::append_submit(std::uint64_t id, const JobRequest& request,
                               const CacheKey& key,
                               std::string_view canonical_text,
                               std::string* error) {
  std::string line = encode_submit(id, request, key, canonical_text);
  const std::lock_guard<std::mutex> lock(mutex_);
  return append_line_locked(std::move(line), error);
}

bool JobJournal::append_submit(std::uint64_t id, const JobRequest& request,
                               const CacheKey& key, std::string* error) {
  return append_submit(id, request, key,
                       canonical_config_set_text(request.configs), error);
}

bool JobJournal::append_state(const JobStatus& status, std::uint64_t secondary,
                              std::string* error) {
  std::string line = encode_state(status, secondary);
  const std::lock_guard<std::mutex> lock(mutex_);
  return append_line_locked(std::move(line), error);
}

JournalStats JobJournal::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace confmask
