// confmaskd — the batch anonymization daemon.
//
//   usage: confmaskd --socket PATH --cache-dir DIR
//                    [--max-concurrent-jobs N] [--max-pending N]
//                    [--trace FILE] [--jobs N]
//                    [--journal PATH] [--cache-budget BYTES]
//                    [--listen HOST:PORT] [--idle-timeout-ms N]
//                    [--max-line-bytes N]
//                    [--tenants FILE] [--peers EP1,EP2,...]
//                    [--self ENDPOINT] [--peer-timeout-ms N]
//          confmaskd --version
//
// Serves the confmaskd protocol (src/service/protocol.hpp) over a
// unix-domain socket — and, with --listen, a TCP port sharing the same
// connection manager: clients submit anonymization jobs, poll status,
// subscribe to streamed progress events, fetch artifacts, and ask for
// shutdown. Connections are served concurrently from one poll loop; an
// idle or slow client delays nobody and is reaped after --idle-timeout-ms
// of silence (default 60000; 0 disables). Identical resubmissions are
// served byte-identically from the content-addressed cache under
// --cache-dir without re-running the pipeline.
//
// --max-concurrent-jobs bounds pipelines running at once (each still fans
// its simulations out over the shared worker pool; --jobs sets that pool's
// size, as in confmask_cli). --trace streams every job's pipeline spans as
// NDJSON tagged with "job": "job-<id>".
//
// --journal makes acknowledged jobs durable: every accepted submission is
// fsync'd to a write-ahead journal before the ack, and after a crash
// (even kill -9) the daemon replays interrupted jobs on restart.
// --cache-budget caps the artifact cache, evicting least-recently-used
// entries (evicted results recompute on resubmission).
//
// Fleet mode: --tenants FILE loads per-tenant quotas (queue depth,
// concurrency, cache byte share, scheduler weight; tenant.hpp json-line
// format) and SIGHUP reloads it without a restart. --peers lists every
// fleet member's client endpoint (comma-separated); each cache key then
// has one rendezvous-hash owner, and a local miss asks the owner for the
// bytes (bounded by --peer-timeout-ms) before computing. --self spells
// this daemon's endpoint exactly as the peers list does — defaults to
// --socket, right whenever the fleet shares a filesystem.
//
// Every numeric flag takes one whole number with no unit: a value such as
// `--cache-budget 10GB` exits 2 naming its flag, before anything is bound.
//
// Stops on a protocol shutdown request: "drain" finishes queued jobs,
// "cancel" abandons them; running jobs always complete (fail-closed — no
// partial cache entries either way).
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "src/service/daemon.hpp"
#include "src/util/build_info.hpp"
#include "src/util/strings.hpp"
#include "src/util/thread_pool.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: confmaskd --socket PATH --cache-dir DIR "
               "[--max-concurrent-jobs N] [--max-pending N] [--trace FILE] "
               "[--jobs N] [--journal PATH] [--cache-budget BYTES] "
               "[--listen HOST:PORT] [--idle-timeout-ms N] "
               "[--max-line-bytes N] [--tenants FILE] "
               "[--peers EP1,EP2,...] [--self ENDPOINT] "
               "[--peer-timeout-ms N]\n"
               "       confmaskd --version\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--version") == 0) {
    std::printf("%s\n", confmask::build_stamp().c_str());
    return 0;
  }

  confmask::Daemon::Options options;
  std::string trace_file;
  unsigned jobs = 0;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      return usage();
    }
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    const char* want = nullptr;  // what a bad numeric value should be
    const auto positive = [&](auto& out, const char* wanted) {
      if (!confmask::read_number(value, out) || out < 1) want = wanted;
    };
    if (std::strcmp(flag, "--socket") == 0) {
      options.socket_path = value;
    } else if (std::strcmp(flag, "--cache-dir") == 0) {
      options.cache_dir = value;
    } else if (std::strcmp(flag, "--max-concurrent-jobs") == 0) {
      positive(options.max_concurrent_jobs, "a whole number >= 1");
    } else if (std::strcmp(flag, "--max-pending") == 0) {
      positive(options.max_pending, "a whole number >= 1");
    } else if (std::strcmp(flag, "--trace") == 0) {
      trace_file = value;
    } else if (std::strcmp(flag, "--journal") == 0) {
      options.journal_path = value;
    } else if (std::strcmp(flag, "--cache-budget") == 0) {
      positive(options.cache_max_bytes, "a whole number of bytes > 0");
    } else if (std::strcmp(flag, "--listen") == 0) {
      options.listen_address = value;
    } else if (std::strcmp(flag, "--idle-timeout-ms") == 0) {
      if (!confmask::read_number(value, options.idle_timeout_ms)) {
        want = "a whole number of milliseconds (0 disables)";
      }
    } else if (std::strcmp(flag, "--max-line-bytes") == 0) {
      positive(options.max_line_bytes, "a whole number of bytes > 0");
    } else if (std::strcmp(flag, "--tenants") == 0) {
      options.tenants_file = value;
    } else if (std::strcmp(flag, "--peers") == 0) {
      // Comma-separated endpoints; self is added automatically when the
      // list omits it, so "the same --peers on every member" just works.
      const std::string list = value;
      std::size_t start = 0;
      while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        const std::string endpoint =
            list.substr(start, comma == std::string::npos ? std::string::npos
                                                          : comma - start);
        if (!endpoint.empty()) options.peers.push_back(endpoint);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
      if (options.peers.empty()) {
        std::fprintf(stderr, "--peers needs at least one endpoint\n");
        return usage();
      }
    } else if (std::strcmp(flag, "--self") == 0) {
      options.self_endpoint = value;
    } else if (std::strcmp(flag, "--peer-timeout-ms") == 0) {
      if (!confmask::read_number(value, options.peer_timeout_ms) ||
          options.peer_timeout_ms < 1 || options.peer_timeout_ms > 600'000) {
        want = "a whole number of milliseconds in 1..600000";
      }
    } else if (std::strcmp(flag, "--jobs") == 0) {
      positive(jobs, "a whole number >= 1");
    } else {
      return usage();
    }
    if (want != nullptr) {
      std::fprintf(stderr, "invalid %s '%s': want %s\n", flag, value, want);
      return usage();
    }
  }
  if (options.socket_path.empty() || options.cache_dir.empty()) {
    return usage();
  }

  if (jobs > 0) confmask::ThreadPool::configure(jobs);

  std::ofstream trace_out;
  if (!trace_file.empty()) {
    trace_out.open(trace_file);
    if (!trace_out) {
      std::fprintf(stderr, "cannot write %s\n", trace_file.c_str());
      return 1;
    }
    options.trace_stream = &trace_out;
  }

  confmask::Daemon daemon(options);
  return daemon.run();
}
