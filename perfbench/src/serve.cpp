// serve-hits and serve-edits: the shipped confmaskd as a child process,
// driven over its unix socket by two closed-loop clients in this process.
// Each client runs a fixed number of ops per window (ops_for): the daemon
// keeps state for every finished job, so a window that ran more ops would
// also end with a larger heap and journal.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <thread>

#include "perfbench/src/bench.hpp"
#include "perfbench/src/checks.hpp"
#include "perfbench/src/daemon_child.hpp"
#include "perfbench/src/layers.hpp"
#include "src/config/diff.hpp"
#include "src/config/emit.hpp"
#include "src/config/parse.hpp"
#include "src/netgen/networks.hpp"
#include "src/util/rng.hpp"

namespace perfbench {

namespace {

constexpr int kClients = 2;
/// Hits per client per second of --seconds: 640 per client at 10 s, which
/// took 8-10 s on the 4-vCPU VM this benchmark was written on.
constexpr double kHitsPerClientPerSecond = 64;
/// serve-hits windows run as this many equal parts (256 ops each at 10 s).
/// Its 10 ms ops are a chain of thread wake-ups plus a journal fsync, so a
/// host stall of a second or two moves the whole-window tail; the median
/// over parts is moved only when the stall spans most of them.
constexpr int kHitParts = 5;
/// Edits per chain per second of --seconds, one rate per chain (USCarrier,
/// FatTree08): 64 and 48 at 10 s. Both chains took about 10 s for them on
/// that VM, so neither sits idle for long while the other publishes.
constexpr double kEditsPerChainPerSecond[] = {6.4, 4.8};
/// Ops whose inputs the traced run also feeds to the direct layer calls.
constexpr std::size_t kProbes = 6;

std::string job_params(confmask::JsonLineWriter& line, std::uint64_t seed) {
  const confmask::ConfMaskOptions options = paper_options(seed);
  return line.number("k_r", options.k_r)
      .number("k_h", options.k_h)
      .real("noise_p", options.noise_p)
      .number_u64("seed", options.seed)
      .str();
}

/// The "attempts" of a diagnostics JSON document (0 when absent).
int attempts_of(const std::string& diagnostics) {
  const std::string key = "\"attempts\": ";
  const std::size_t at = diagnostics.find(key);
  return at == std::string::npos
             ? 0
             : std::atoi(diagnostics.c_str() + at + key.size());
}

/// Ops of one client in one window at `rate` per second of --seconds; a
/// traced run splits them into an untraced half and a traced half.
std::size_t window_ops(const RunConfig& config, double rate) {
  return ops_for(config.trace ? config.seconds / 2 : config.seconds, rate);
}

/// Runs one closed-loop client per entry of `ops_per_client` against the
/// daemon, `parts` times in a row: in each part every client does its ops,
/// and the next part starts when all clients are done. `body(client,
/// sequence)` performs one op and returns its latency in ms; a client's
/// sequence continues across parts.
Window closed_loop(const DaemonChild& daemon,
                   const std::vector<std::size_t>& ops_per_client, int parts,
                   const std::function<double(int, std::uint64_t)>& body) {
  const std::size_t clients = ops_per_client.size();
  Window window;
  window.rss_reset = reset_hwm(daemon.pid());
  const double cpu_before = process_cpu_ms(daemon.pid());
  const auto start = Clock::now();
  std::vector<Clock::time_point> last_end(clients, start);
  for (int part = 0; part < parts; ++part) {
    const auto part_start = Clock::now();
    std::vector<std::vector<double>> per_client(clients);
    std::vector<std::exception_ptr> errors(clients);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        try {
          const std::size_t ops = ops_per_client[c];
          for (std::size_t i = 0; i < ops; ++i) {
            per_client[c].push_back(body(
                static_cast<int>(c), static_cast<std::size_t>(part) * ops + i));
            last_end[c] = Clock::now();
          }
        } catch (...) {
          errors[c] = std::current_exception();
        }
      });
    }
    for (auto& thread : threads) thread.join();
    for (const auto& error : errors) {
      if (error) std::rethrow_exception(error);
    }
    window.part_s.push_back(
        ms_between(part_start,
                   *std::max_element(last_end.begin(), last_end.end())) /
        1e3);
    for (const auto& ops : per_client) {
      window.op_ms.insert(window.op_ms.end(), ops.begin(), ops.end());
    }
  }
  window.cpu_ms = process_cpu_ms(daemon.pid()) - cpu_before;
  window.peak_rss_mb = process_hwm_mb(daemon.pid());
  for (const auto end : last_end) {
    window.client_s.push_back(ms_between(start, end) / 1e3);
  }
  return window;
}

/// Counter deltas of the daemon over a window.
struct StatsDelta {
  std::uint64_t hits = 0, misses = 0, simulations = 0, resubmitted = 0,
                patched = 0, fallbacks = 0;
};

StatsDelta stats_delta(const confmask::JsonObject& before,
                       const confmask::JsonObject& after) {
  const auto delta = [&](const char* key) {
    return counter(after, key) - counter(before, key);
  };
  return StatsDelta{delta("cache_hits"), delta("cache_misses"),
                    delta("simulations"), delta("resubmitted"),
                    delta("patched_jobs"), delta("patch_fallbacks")};
}

std::string share_text(std::uint64_t part, std::uint64_t whole) {
  return std::to_string(part) + "/" + std::to_string(whole);
}

/// Daemon-counter samples of a traced window.
void sample_stats(Tracer& tracer, const StatsDelta& delta, std::size_t ops) {
  if (delta.hits + delta.misses > 0) {
    tracer.sample("service.cache_hit_share",
                  static_cast<double>(delta.hits) /
                      static_cast<double>(delta.hits + delta.misses),
                  "daemon");
  }
  if (delta.resubmitted > 0) {
    tracer.sample("service.patched_share",
                  static_cast<double>(delta.patched) /
                      static_cast<double>(delta.resubmitted),
                  "daemon");
  }
  if (ops > 0) {
    tracer.sample("core.simulations_per_op",
                  static_cast<double>(delta.simulations) /
                      static_cast<double>(ops),
                  "daemon");
  }
}

/// Publishes `lines` (one submit each) from two threads; returns the ops in
/// input order. Every one must finish "done".
std::vector<ServeOp> publish(const DaemonChild& daemon,
                             const std::vector<std::string>& lines) {
  std::vector<ServeOp> ops(lines.size());
  std::vector<std::exception_ptr> errors(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        for (std::size_t i = static_cast<std::size_t>(c); i < lines.size();
             i += kClients) {
          ops[i] = run_serve_op(daemon.endpoint(), lines[i], false);
          if (!ops[i].done) {
            throw std::runtime_error("set-up submit " + std::to_string(i) +
                                     " did not finish done");
          }
        }
      } catch (...) {
        errors[static_cast<std::size_t>(c)] = std::current_exception();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return ops;
}

/// Repeats a serve set-up kSetupRepetitions times, each against a fresh
/// daemon with an empty cache and journal, and keeps the last daemon.
/// `publish_all(daemon)` runs inside the timed part.
template <typename Publish>
std::unique_ptr<DaemonChild> repeated_setup(const RunConfig& config,
                                            WorkloadResult& result,
                                            const std::function<void()>& generate,
                                            Publish&& publish_all) {
  std::unique_ptr<DaemonChild> daemon;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    if (daemon) daemon->shutdown();
    daemon.reset();
    const auto start = Clock::now();
    generate();
    daemon = std::make_unique<DaemonChild>(
        config.daemon, config.work_dir / ("daemon-" + std::to_string(rep)));
    publish_all(*daemon);
    result.setup_s.push_back(ms_between(start, Clock::now()) / 1e3);
  }
  result.storage_path = daemon->cache_dir().string();
  return daemon;
}

/// A submit line for `canonical_text` at paper defaults and `seed`.
std::string submit_line(const std::string& canonical_text,
                        std::uint64_t seed) {
  confmask::JsonLineWriter line;
  line.string("op", "submit").string("configs", canonical_text);
  return job_params(line, seed);
}

/// Records the service round trips of one serve op as spans and samples.
void sample_round_trips(Tracer& tracer, std::uint64_t op_id,
                        const ServeOp& op) {
  const std::uint64_t root = tracer.next_id();
  tracer.timed(op_id, root, "service.submit", op.start, op.acked,
               "service.submit_ms");
  tracer.timed(op_id, root, "service.wait", op.acked, op.terminal,
               "service.wait_ms");
  tracer.timed(op_id, root, "service.result", op.terminal, op.end,
               "service.result_ms");
  tracer.span(op_id, root, 0, "op", op.start,
              static_cast<std::uint64_t>(ms_between(op.start, op.end) * 1e6));
  tracer.sample("service.wire_kb_per_op",
                static_cast<double>(op.wire.sent + op.wire.received) / 1024.0);
}

}  // namespace

WorkloadResult run_serve_hits(const RunConfig& config) {
  WorkloadResult result;
  struct Entry {
    std::string text;
    std::uint64_t seed = 1;
    std::string published;    ///< set-up result
    std::string diagnostics;  ///< set-up diagnostics
    bool verified = false;    ///< set-up result passed the checks
  };
  std::vector<Entry> corpus;
  const auto generate = [&] {
    corpus.clear();
    for (const auto& network : confmask::evaluation_networks()) {
      const std::string text =
          confmask::canonical_config_set_text(network.configs);
      for (std::uint64_t seed : {1, 2}) {
        corpus.push_back(Entry{text, seed, "", "", false});
      }
    }
  };
  auto daemon = repeated_setup(config, result, generate,
                               [&](DaemonChild& child) {
    std::vector<std::string> lines;
    for (const Entry& entry : corpus) {
      lines.push_back(submit_line(entry.text, entry.seed));
    }
    const auto ops = publish(child, lines);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      corpus[i].published = ops[i].configs;
      corpus[i].diagnostics = ops[i].diagnostics;
    }
  });
  result.facts.push_back("set-up: bundles published " +
                         std::to_string(corpus.size()) +
                         " (Table-2 networks A-H x seeds 1-2), chains "
                         "started 0");

  // Fixed op order from the seed: a permutation of the corpus. Every
  // client walks all of it, client c starting c/kClients of the way in, so
  // each client carries the same load whatever the seed. (With the
  // permutation dealt out between the clients, the seed decided which
  // client got the large bundles, and one client idled at each part's
  // end: op_ms_p50 and the daemon's cpu_ms_per_op moved by about 10%
  // with the seed alone.)
  std::vector<std::size_t> order(corpus.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  confmask::Rng rng(config.seed * 0x2545F4914F6CDD1DULL + 3);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }

  std::atomic<std::uint64_t> next_id{0};
  struct HitOp {
    std::size_t entry = 0;
    bool done = false;
    bool bytes_match = false;
  };
  std::vector<HitOp> hit_ops;
  std::mutex hit_mutex;
  // One hit op of `client`'s walk; records its slot in `op_slots`.
  const auto hit_op = [&](Tracer* tracer, std::vector<std::size_t>& op_slots) {
    return [&, tracer](int client, std::uint64_t seq) {
      const std::size_t entry =
          order[(static_cast<std::size_t>(client) * order.size() / kClients +
                 static_cast<std::size_t>(seq)) %
                order.size()];
      const ServeOp op = run_serve_op(
          daemon->endpoint(),
          submit_line(corpus[entry].text, corpus[entry].seed),
          tracer != nullptr);
      {
        const std::lock_guard<std::mutex> lock(hit_mutex);
        op_slots.push_back(hit_ops.size());
        hit_ops.push_back(
            HitOp{entry, op.done, op.configs == corpus[entry].published});
      }
      if (tracer != nullptr) {
        sample_round_trips(*tracer, next_id++, op);
      }
      return ms_between(op.start, op.end);
    };
  };
  const auto run_window = [&](Tracer* tracer, Window& window,
                              std::vector<std::size_t>& op_slots) {
    const auto before = daemon_stats(daemon->endpoint());
    window = closed_loop(
        *daemon,
        std::vector<std::size_t>(
            kClients,
            window_ops(config, kHitsPerClientPerSecond / kHitParts)),
        kHitParts, hit_op(tracer, op_slots));
    const StatsDelta delta =
        stats_delta(before, daemon_stats(daemon->endpoint()));
    result.facts.push_back(
        std::string(tracer != nullptr ? "traced" : "untraced") +
        " window: daemon cache hits " +
        share_text(delta.hits, delta.hits + delta.misses) +
        ", simulations " + std::to_string(delta.simulations));
    if (tracer != nullptr) sample_stats(*tracer, delta, window.op_ms.size());
  };

  // Untimed warm-up: one pass over the corpus.
  std::vector<std::size_t> warm_slots;
  const auto warm = hit_op(nullptr, warm_slots);
  for (std::uint64_t seq = 0; seq < corpus.size() / kClients; ++seq) {
    for (int client = 0; client < kClients; ++client) (void)warm(client, seq);
  }

  std::vector<std::size_t> untraced_slots;
  std::vector<std::size_t> traced_slots;
  run_window(nullptr, result.untraced, untraced_slots);
  if (config.trace) {
    result.tracer = std::make_unique<Tracer>();
    result.traced.emplace();
    run_window(result.tracer.get(), *result.traced, traced_slots);
  }
  daemon->shutdown();

  // Checks: each set-up result once, then every op byte for byte.
  const auto setup_verdicts = check_all(corpus.size(), [&](std::size_t i) {
    const Entry& entry = corpus[i];
    return check_artifact(confmask::parse_config_set(entry.text),
                          confmask::parse_config_set(entry.published),
                          relaxed_k_r(entry.diagnostics, 6))
        .ok();
  });
  std::size_t setup_verified = 0;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    corpus[i].verified = setup_verdicts[i];
    setup_verified += setup_verdicts[i] ? 1 : 0;
  }
  result.facts.push_back("set-up results passing the independent checks: " +
                         share_text(setup_verified, corpus.size()));
  const auto verdicts = [&](const std::vector<std::size_t>& slots) {
    std::vector<bool> out;
    for (const std::size_t slot : slots) {
      const HitOp& op = hit_ops[slot];
      const bool ok =
          op.done && op.bytes_match && corpus[op.entry].verified;
      result.returned_unverified += op.done && !ok ? 1 : 0;
      out.push_back(ok);
    }
    return out;
  };
  result.untraced.verified = verdicts(untraced_slots);
  if (result.traced) {
    result.traced->verified = verdicts(traced_slots);
    // Direct config and service calls on the first distinct corpus
    // entries of the walk. A hit runs no pipeline, so the core, routing,
    // graph and util metrics stay n/a here.
    LayerProbe probe(config.work_dir / "probe");
    for (std::size_t i = 0; i < std::min(kProbes, order.size()); ++i) {
      const Entry& entry = corpus[order[i]];
      ProbeInput input;
      input.op = 1'000'000 + i;
      input.original_text = entry.text;
      input.anonymized_text = entry.published;
      input.diagnostics = entry.diagnostics;
      probe.run(*result.tracer, input);
    }
  }
  return result;
}

WorkloadResult run_serve_edits(const RunConfig& config) {
  WorkloadResult result;
  struct Chain {
    std::string base_text;    ///< canonical set-up bundle
    std::string latest_text;  ///< canonical original of the latest entry
    std::string latest_key;
  };
  std::vector<Chain> chains;
  const auto generate = [&] {
    chains.clear();
    for (const confmask::ConfigSet& base :
         {confmask::make_uscarrier(), confmask::make_fattree08()}) {
      chains.push_back(
          Chain{confmask::canonical_config_set_text(base), "", ""});
    }
  };
  auto daemon = repeated_setup(config, result, generate,
                               [&](DaemonChild& child) {
    std::vector<std::string> lines;
    for (const Chain& chain : chains) {
      lines.push_back(submit_line(chain.base_text, 1));
    }
    const auto ops = publish(child, lines);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      chains[i].latest_text = chains[i].base_text;
      chains[i].latest_key = ops[i].cache_key;
    }
  });
  result.facts.push_back(
      "set-up: bundles published 2 (chain bases), chains started 2 "
      "(F USCarrier, H FatTree08)");

  struct EditOp {
    std::string input;   ///< canonical edited bundle the op submitted
    std::string base;    ///< canonical bundle the diff applies to
    std::string diff;
    std::string output;  ///< returned bundle ("" when failed)
    int k_r = 6;
    bool done = false;
  };
  std::vector<EditOp> edit_ops;
  std::mutex edit_mutex;
  std::atomic<std::uint64_t> next_id{0};
  // The seed picks the edited routers: one picker per chain.
  std::vector<confmask::Rng> pickers;
  for (std::size_t c = 0; c < chains.size(); ++c) {
    pickers.emplace_back(config.seed * 0x9E3779B97F4A7C15ULL + c);
  }
  std::vector<int> edits_made(chains.size(), 0);
  std::atomic<std::size_t> ops_with_spans{0};
  std::atomic<std::size_t> partial_streams{0};

  // One edit op on `client`'s chain; records its slot in `op_slots`.
  const auto edit_op_body = [&](Tracer* tracer,
                                std::vector<std::size_t>& op_slots) {
    return [&, tracer](int client, std::uint64_t) {
      Chain& chain = chains[static_cast<std::size_t>(client)];
      const int edit = client * 100'000 +
                       edits_made[static_cast<std::size_t>(client)]++;
      confmask::ConfigSet base = confmask::parse_config_set(chain.latest_text);
      confmask::ConfigSet next = base;
      add_filter_edit(next,
                      pickers[static_cast<std::size_t>(client)].next(),
                      edit);
      EditOp edit_op;
      edit_op.base = chain.latest_text;
      edit_op.diff = confmask::render_bundle_diff(base, next);
      edit_op.input = confmask::canonical_config_set_text(next);
      confmask::JsonLineWriter line;
      line.string("op", "resubmit")
          .string("base", chain.latest_key)
          .string("diff", edit_op.diff);
      const std::string request = job_params(line, 1);

      ServeOp op = run_serve_op(daemon->endpoint(), request,
                                tracer != nullptr);
      const double ms = ms_between(op.start, op.end);
      edit_op.done = op.done;
      if (op.done) {
        edit_op.output = std::move(op.configs);
        edit_op.k_r = relaxed_k_r(op.diagnostics, 6);
        chain.latest_text = edit_op.input;
        chain.latest_key = op.cache_key;
      }
      if (tracer != nullptr) {
        sample_round_trips(*tracer, next_id++, op);
        // Spans emitted before the subscription attached are not
        // replayed, so only a stream that saw the trace begin gives stage
        // samples; a partial one would read its missed stages as 0 ms.
        if (op.stages.span_ends > 0) ++ops_with_spans;
        if (op.stages.complete) {
          sample_stage_totals(*tracer, op.stages, false);
        } else if (op.stages.span_ends > 0) {
          ++partial_streams;
        }
        tracer->sample("core.attempts_per_op", attempts_of(op.diagnostics));
      }
      const std::lock_guard<std::mutex> lock(edit_mutex);
      op_slots.push_back(edit_ops.size());
      edit_ops.push_back(std::move(edit_op));
      return ms;
    };
  };
  const auto run_window = [&](Tracer* tracer, Window& window,
                              std::vector<std::size_t>& op_slots) {
    const auto before = daemon_stats(daemon->endpoint());
    std::vector<std::size_t> ops;
    for (const double rate : kEditsPerChainPerSecond) {
      ops.push_back(window_ops(config, rate));
    }
    window = closed_loop(*daemon, ops, 1, edit_op_body(tracer, op_slots));
    const StatsDelta delta =
        stats_delta(before, daemon_stats(daemon->endpoint()));
    std::string chains_text;
    for (std::size_t c = 0; c < ops.size(); ++c) {
      char text[64];
      std::snprintf(text, sizeof text, "%s%zu edits in %.2f s",
                    c == 0 ? "F " : ", H ", ops[c], window.client_s[c]);
      chains_text += text;
    }
    result.facts.push_back(
        std::string(tracer != nullptr ? "traced" : "untraced") +
        " window: chains " + chains_text + "; daemon patched " +
        share_text(delta.patched, delta.resubmitted) +
        " resubmits (cold fallbacks " + std::to_string(delta.fallbacks) +
        "), cache hits " +
        share_text(delta.hits, delta.hits + delta.misses) + ", simulations " +
        std::to_string(delta.simulations) +
        (tracer != nullptr
             ? ", op streams carrying stage spans " +
                   share_text(ops_with_spans, window.op_ms.size()) +
                   ", of them partial (attached after the trace began, no "
                   "stage samples taken) " +
                   std::to_string(partial_streams.load())
             : ""));
    if (tracer != nullptr) sample_stats(*tracer, delta, window.op_ms.size());
  };

  // Untimed edits, one per chain per round, taking turns.
  std::vector<std::size_t> warm_slots;
  const auto warm = [&, body = edit_op_body(nullptr, warm_slots)](int rounds) {
    for (int seq = 0; seq < rounds; ++seq) {
      for (int client = 0; client < kClients; ++client) (void)body(client, 0);
    }
  };
  warm(2);

  std::vector<std::size_t> untraced_slots;
  std::vector<std::size_t> traced_slots;
  run_window(nullptr, result.untraced, untraced_slots);
  if (config.trace) {
    // The chain that finished first sat idle while the other published,
    // and the daemon keeps only 4 watch contexts, so its latest one may be
    // gone. One untimed edit per chain primes both again.
    warm(1);
    result.tracer = std::make_unique<Tracer>();
    result.traced.emplace();
    run_window(result.tracer.get(), *result.traced, traced_slots);
  }
  daemon->shutdown();

  const auto all = check_all(edit_ops.size(), [&](std::size_t i) {
    const EditOp& op = edit_ops[i];
    if (!op.done) return false;
    return check_artifact(confmask::parse_config_set(op.input),
                          confmask::parse_config_set(op.output), op.k_r)
        .ok();
  });
  const auto verdicts = [&](const std::vector<std::size_t>& slots) {
    std::vector<bool> out;
    for (const std::size_t slot : slots) {
      result.returned_unverified += edit_ops[slot].done && !all[slot] ? 1 : 0;
      out.push_back(all[slot]);
    }
    return out;
  };
  result.untraced.verified = verdicts(untraced_slots);
  if (result.traced) {
    result.traced->verified = verdicts(traced_slots);
    LayerProbe probe(config.work_dir / "probe");
    for (std::size_t i = 0; i < std::min(kProbes, traced_slots.size()); ++i) {
      const EditOp& op = edit_ops[traced_slots[i]];
      ProbeInput input;
      input.op = 1'000'000 + i;
      input.original_text = op.base;
      input.anonymized_text = op.output;
      input.diff_text = op.diff;
      probe.run(*result.tracer, input);
    }
  }
  return result;
}

}  // namespace perfbench
