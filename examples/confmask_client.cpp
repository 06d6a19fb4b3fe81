// confmask-client — command-line client for confmaskd.
//
//   usage: confmask-client --socket ENDPOINT <command> [args]
//     ENDPOINT is a unix socket path, or HOST:PORT for a daemon started
//     with --listen
//     submit <config-dir> [--kr N] [--kh N] [--p FLOAT] [--seed N]
//            [--fake-routers N] [--deadline-ms N] [--tenant NAME]
//                                    submit every *.cfg under <config-dir>;
//                                    load-shed rejections (retry_after_ms)
//                                    are retried with backoff + jitter;
//                                    a numeric flag or <job> that is not
//                                    exactly one number exits 2 unsent
//     diff <base-dir> <edited-dir>   print a confmask-diff/1 document to
//                                    stdout (local; no daemon needed)
//     resubmit <base-key> <diff-file> [same flags as submit]
//                                    watch mode: re-anonymize the base
//                                    cache entry with an edit applied;
//                                    <diff-file> is a confmask-diff/1
//                                    document ("-" reads stdin)
//     status <job>                   one status line
//     wait <job>                     subscribe to the job's event stream
//                                    and block until it is terminal (falls
//                                    back to status polling against an
//                                    older daemon), then print the final
//                                    status line
//     subscribe <job>                print the job's event stream raw:
//                                    the ack, per-stage pipeline spans,
//                                    state transitions, until terminal
//     result <job> [--out DIR]      fetch artifacts; --out writes the
//                                    anonymized configs as *.cfg files
//     cancel <job>
//     stats
//     ping                           daemon health: build stamp, uptime,
//                                    queue depth, journal/cache vitals
//     shutdown [drain|cancel]
//
// Every command prints the daemon's raw JSON response line to stdout (so
// scripts can grep fields like "job" or "cache_hit") and exits 0 when the
// response says ok, 1 on a protocol error, 2 on usage/transport problems.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <thread>
#include <utility>

#include "src/config/diff.hpp"
#include "src/config/emit.hpp"
#include "src/config/parse.hpp"
#include "src/core/confmask.hpp"
#include "src/service/client.hpp"
#include "src/service/json_line.hpp"
#include "src/util/strings.hpp"

namespace {

using namespace confmask;
namespace fs = std::filesystem;

int usage() {
  std::fprintf(
      stderr,
      "usage: confmask-client --socket ENDPOINT <command> [args]\n"
      "  ENDPOINT: unix socket path, or HOST:PORT (daemon --listen)\n"
      "  submit <config-dir> [--kr N] [--kh N] [--p FLOAT] [--seed N] "
      "[--fake-routers N] [--deadline-ms N] [--tenant NAME]\n"
      "  diff <base-dir> <edited-dir>          (local, no --socket needed)\n"
      "  resubmit <base-key> <diff-file>       [same flags as submit]\n"
      "  status <job> | wait <job> | subscribe <job> | "
      "result <job> [--out DIR] | cancel <job>\n"
      "  stats | ping | shutdown [drain|cancel]\n");
  return 2;
}

/// Parses every *.cfg under `dir` into `out`. Returns 0, or 2 after
/// printing the error.
int read_config_dir(const std::string& dir, ConfigSet& out) {
  std::error_code io_error;
  fs::directory_iterator it(dir, io_error);
  if (io_error) {
    std::fprintf(stderr, "cannot read %s: %s\n", dir.c_str(),
                 io_error.message().c_str());
    return 2;
  }
  try {
    for (const auto& entry : it) {
      if (entry.path().extension() != ".cfg") continue;
      std::ifstream in(entry.path());
      const std::string text((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
      if (looks_like_host(text)) {
        out.hosts.push_back(
            parse_host(text, entry.path().filename().string()));
      } else {
        out.routers.push_back(
            parse_router(text, entry.path().filename().string()));
      }
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "parse error: %s\n", error.what());
    return 2;
  }
  return 0;
}

/// Appends the submit/resubmit tuning flags to `request`. Both ops accept
/// the identical parameter surface — a resubmit IS a submit whose bundle
/// arrives as base + diff. Returns false on an unknown or valueless flag,
/// or after naming a flag whose value is not exactly one number within
/// option_error's bounds (the daemon's own).
bool append_job_flags(int argc, char** argv, int arg,
                      JsonWriter& request) {
  ConfMaskOptions options;
  std::uint64_t deadline_ms = 0;
  for (; arg < argc; arg += 2) {
    if (arg + 1 == argc) return false;
    const char* value = argv[arg + 1];
    bool numeric = true;
    const auto read = [&](auto& out) {
      numeric = read_number(value, out);
      return out;
    };
    if (std::strcmp(argv[arg], "--kr") == 0) {
      request.number("k_r", read(options.k_r));
    } else if (std::strcmp(argv[arg], "--kh") == 0) {
      request.number("k_h", read(options.k_h));
    } else if (std::strcmp(argv[arg], "--p") == 0) {
      request.real("noise_p", read(options.noise_p));
    } else if (std::strcmp(argv[arg], "--seed") == 0) {
      request.number_u64("seed", read(options.seed));
    } else if (std::strcmp(argv[arg], "--fake-routers") == 0) {
      request.number("fake_routers", read(options.fake_routers));
    } else if (std::strcmp(argv[arg], "--deadline-ms") == 0) {
      request.number_u64("deadline_ms", read(deadline_ms));
    } else if (std::strcmp(argv[arg], "--tenant") == 0) {
      request.string("tenant", value);
    } else {
      return false;
    }
    // The options held before this flag passed, so a bound broken now is
    // this flag's.
    const auto bound = option_error(options);
    if (!numeric || bound) {
      std::fprintf(stderr, "invalid %s '%s': %s\n", argv[arg], value,
                   numeric ? bound->c_str() : "not a number");
      return false;
    }
  }
  return true;
}

/// Reads a job-id operand (one whole number), naming it when it is not.
bool read_job_id(const char* text, std::uint64_t& job) {
  if (read_number(text, job)) return true;
  std::fprintf(stderr, "invalid job id '%s': not a number\n", text);
  return false;
}

/// Sends an admission request through the retrying path — a daemon at its
/// limit answers with retry_after_ms and we back off rather than fail —
/// then prints the response and returns the exit code.
int send_with_retry(const std::string& socket_path,
                    const std::string& request) {
  TransportError transport;
  const auto response =
      client_submit_with_retry(socket_path, request, {}, &transport);
  if (!response) {
    std::fprintf(stderr, "confmask-client: %s: %s\n",
                 to_string(transport.failure), transport.detail.c_str());
    return 2;
  }
  std::printf("%s\n", response->c_str());
  const auto parsed = parse_json_line(*response);
  if (!parsed) {
    std::fprintf(stderr, "confmask-client: unparsable response\n");
    return 2;
  }
  return get_bool(*parsed, "ok") == true ? 0 : 1;
}

/// Sends one request; prints the response; returns the exit code. Fills
/// `response_out` for callers that need the parsed object.
int roundtrip(const std::string& socket_path, const std::string& request,
              JsonObject* response_out = nullptr) {
  std::string error;
  const auto response = client_roundtrip(socket_path, request, &error);
  if (!response) {
    std::fprintf(stderr, "confmask-client: %s\n", error.c_str());
    return 2;
  }
  std::printf("%s\n", response->c_str());
  const auto parsed = parse_json_line(*response);
  if (!parsed) {
    std::fprintf(stderr, "confmask-client: unparsable response\n");
    return 2;
  }
  if (response_out != nullptr) *response_out = *parsed;
  return get_bool(*parsed, "ok") == true ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  int arg = 1;
  if (arg + 1 < argc && std::strcmp(argv[arg], "--socket") == 0) {
    socket_path = argv[arg + 1];
    arg += 2;
  }
  if (arg >= argc) return usage();
  const std::string command = argv[arg++];
  // `diff` is purely local; every other command talks to the daemon.
  if (socket_path.empty() && command != "diff") return usage();

  if (command == "diff") {
    if (arg + 1 >= argc) return usage();
    ConfigSet base;
    ConfigSet edited;
    if (const int code = read_config_dir(argv[arg], base); code != 0) {
      return code;
    }
    if (const int code = read_config_dir(argv[arg + 1], edited); code != 0) {
      return code;
    }
    std::fputs(render_bundle_diff(base, edited).c_str(), stdout);
    return 0;
  }

  if (command == "submit") {
    if (arg >= argc) return usage();
    const std::string dir = argv[arg++];
    JsonWriter request;
    request.string("op", "submit");

    ConfigSet configs;
    if (const int code = read_config_dir(dir, configs); code != 0) {
      return code;
    }
    if (configs.routers.empty()) {
      std::fprintf(stderr, "no router configurations found in %s\n",
                   dir.c_str());
      return 2;
    }
    request.string("configs",
                   canonical_config_set_text(canonicalize(configs)));
    if (!append_job_flags(argc, argv, arg, request)) return usage();
    return send_with_retry(socket_path, std::move(request).str());
  }

  if (command == "resubmit") {
    if (arg + 1 >= argc) return usage();
    const std::string base_key = argv[arg++];
    const std::string diff_path = argv[arg++];
    std::string diff_text;
    if (diff_path == "-") {
      diff_text.assign(std::istreambuf_iterator<char>(std::cin),
                       std::istreambuf_iterator<char>());
    } else {
      std::ifstream in(diff_path);
      if (!in) {
        std::fprintf(stderr, "cannot read %s\n", diff_path.c_str());
        return 2;
      }
      diff_text.assign(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
    }
    JsonWriter request;
    request.string("op", "resubmit");
    request.string("base", base_key);
    request.string("diff", diff_text);
    if (!append_job_flags(argc, argv, arg, request)) return usage();
    return send_with_retry(socket_path, std::move(request).str());
  }

  if (command == "status" || command == "wait" || command == "cancel" ||
      command == "subscribe") {
    if (arg >= argc) return usage();
    std::uint64_t job = 0;
    if (!read_job_id(argv[arg], job)) return usage();
    if (command == "status" || command == "cancel") {
      return roundtrip(socket_path, JsonWriter{}
                                        .string("op", command)
                                        .number_u64("job", job)
                                        .str());
    }

    const std::string subscribe_request = JsonWriter{}
                                              .string("op", "subscribe")
                                              .number_u64("job", job)
                                              .str();
    if (command == "subscribe") {
      bool saw_ack = false;
      bool ack_ok = false;
      TransportError transport;
      const bool streamed = client_stream(
          socket_path, subscribe_request,
          [&](const std::string& line) {
            std::printf("%s\n", line.c_str());
            std::fflush(stdout);
            if (!saw_ack) {
              saw_ack = true;
              const auto parsed = parse_json_line(line);
              ack_ok = parsed && get_bool(*parsed, "ok") == true;
              return ack_ok;  // a refused subscribe has no stream behind it
            }
            return true;
          },
          &transport);
      if (!streamed) {
        std::fprintf(stderr, "confmask-client: %s: %s\n",
                     to_string(transport.failure), transport.detail.c_str());
        return 2;
      }
      return ack_ok ? 0 : 1;
    }

    // wait: ride the subscribe stream to the terminal event — the daemon
    // pushes every transition, so no polling tick and no poll latency —
    // then print one final status line (the stable, script-visible
    // output). An older daemon that rejects subscribe degrades to the
    // classic 50ms status poll.
    bool stream_done = false;
    {
      bool saw_ack = false;
      bool ack_ok = false;
      TransportError transport;
      const bool streamed = client_stream(
          socket_path, subscribe_request,
          [&](const std::string& line) {
            if (saw_ack) return true;  // consume events until server close
            saw_ack = true;
            const auto parsed = parse_json_line(line);
            ack_ok = parsed && get_bool(*parsed, "ok") == true;
            return ack_ok;
          },
          &transport);
      stream_done = streamed && ack_ok;
    }
    const std::string status_request = JsonWriter{}
                                           .string("op", "status")
                                           .number_u64("job", job)
                                           .str();
    for (;;) {
      std::string error;
      const auto response =
          client_roundtrip(socket_path, status_request, &error);
      if (!response) {
        std::fprintf(stderr, "confmask-client: %s\n", error.c_str());
        return 2;
      }
      const auto parsed = parse_json_line(*response);
      const auto state =
          parsed ? get_string(*parsed, "state") : std::nullopt;
      if (!parsed || get_bool(*parsed, "ok") != true) {
        std::printf("%s\n", response->c_str());
        return 1;
      }
      if (state == "done" || state == "failed" || state == "cancelled") {
        std::printf("%s\n", response->c_str());
        return state == "done" ? 0 : 1;
      }
      if (stream_done) {
        // The stream said terminal but status does not agree — should not
        // happen; degrade to polling rather than looping on the stream.
        stream_done = false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }

  if (command == "result") {
    if (arg >= argc) return usage();
    std::uint64_t job = 0;
    if (!read_job_id(argv[arg++], job)) return usage();
    std::string out_dir;
    if (arg + 1 < argc && std::strcmp(argv[arg], "--out") == 0) {
      out_dir = argv[arg + 1];
      arg += 2;
    }
    JsonObject response;
    const int code = roundtrip(
        socket_path,
        JsonWriter{}.string("op", "result").number_u64("job", job).str(),
        &response);
    if (code != 0 || out_dir.empty()) return code;
    const auto bundle = get_string(response, "configs");
    if (!bundle || bundle->empty()) {
      std::fprintf(stderr, "no configs in result (failed job?)\n");
      return 1;
    }
    try {
      const ConfigSet configs = parse_config_set(*bundle);
      fs::create_directories(out_dir);
      for (const auto& router : configs.routers) {
        std::ofstream(fs::path(out_dir) / (router.hostname + ".cfg"))
            << emit_router(router);
      }
      for (const auto& host : configs.hosts) {
        std::ofstream(fs::path(out_dir) / (host.hostname + ".cfg"))
            << emit_host(host);
      }
    } catch (const std::exception& error) {
      std::fprintf(stderr, "cannot write %s: %s\n", out_dir.c_str(),
                   error.what());
      return 1;
    }
    return 0;
  }

  if (command == "stats") {
    return roundtrip(socket_path,
                     JsonWriter{}.string("op", "stats").str());
  }

  if (command == "ping") {
    return roundtrip(socket_path,
                     JsonWriter{}.string("op", "ping").str());
  }

  if (command == "shutdown") {
    std::string mode = "drain";
    if (arg < argc) mode = argv[arg];
    if (mode != "drain" && mode != "cancel") return usage();
    return roundtrip(
        socket_path,
        JsonWriter{}.string("op", "shutdown").string("mode", mode).str());
  }

  return usage();
}
