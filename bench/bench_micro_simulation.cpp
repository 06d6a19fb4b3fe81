// Microbenchmarks (google-benchmark) of the substrate primitives whose
// cost dominates the pipeline: control-plane convergence, data-plane
// extraction, and k-degree anonymization. These quantify the "simulation
// job" cost unit of §5.4. The BM_Text* cases time the bundle text path of
// confmaskd's serve path (DESIGN.md §11): render, parse, JSON-quote and
// per-device digests.
#include <benchmark/benchmark.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/config/emit.hpp"
#include "src/config/parse.hpp"
#include "src/core/original_index.hpp"
#include "src/core/pipeline_runner.hpp"
#include "src/graph/k_degree_anonymize.hpp"
#include "src/netgen/networks.hpp"
#include "src/netgen/scale_families.hpp"
#include "src/routing/simulation.hpp"
#include "src/service/cache_key.hpp"
#include "src/util/json_writer.hpp"

namespace confmask {
namespace {

const ConfigSet& network_by_index(int index) {
  static const auto networks = evaluation_networks();
  return networks[static_cast<std::size_t>(index)].configs;
}

void BM_SimulationConverge(benchmark::State& state) {
  const auto& configs = network_by_index(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const Simulation sim(configs);
    benchmark::DoNotOptimize(sim.topology().node_count());
  }
}
BENCHMARK(BM_SimulationConverge)->DenseRange(0, 7)->Unit(benchmark::kMillisecond);

void BM_DataPlaneExtraction(benchmark::State& state) {
  const auto& configs = network_by_index(static_cast<int>(state.range(0)));
  const Simulation sim(configs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.extract_data_plane().path_count());
  }
}
BENCHMARK(BM_DataPlaneExtraction)->DenseRange(0, 7)->Unit(benchmark::kMillisecond);

void BM_OriginalIndexSnapshot(benchmark::State& state) {
  const auto& configs = network_by_index(static_cast<int>(state.range(0)));
  const Simulation sim(configs);
  for (auto _ : state) {
    const OriginalIndex index(sim);
    benchmark::DoNotOptimize(index.real_hosts().size());
  }
}
BENCHMARK(BM_OriginalIndexSnapshot)->DenseRange(0, 7)->Unit(benchmark::kMillisecond);

// Graph::has_edge via the sorted adjacency mirror (O(log d) binary search
// instead of an O(d) scan) — the inner call of clustering coefficients and
// the anonymizer's candidate-edge scans. Range = router count of a Waxman
// scale network.
void BM_GraphHasEdge(benchmark::State& state) {
  const int routers = static_cast<int>(state.range(0));
  const auto configs =
      make_scale_network(ScaleFamily::kWaxman, routers, 0xED6E);
  const auto graph = Topology::build(configs).router_graph();
  int u = 0;
  int v = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph.has_edge(u, v));
    u = (u + 1) % routers;
    v = (v + 7) % routers;
  }
}
BENCHMARK(BM_GraphHasEdge)->Arg(100)->Arg(1000)->Arg(10000);

void BM_ClusteringCoefficient(benchmark::State& state) {
  const auto configs = make_scale_network(
      ScaleFamily::kWaxman, static_cast<int>(state.range(0)), 0xC1C0);
  const auto graph = Topology::build(configs).router_graph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(clustering_coefficient(graph));
  }
}
BENCHMARK(BM_ClusteringCoefficient)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_KDegreeAnonymize(benchmark::State& state) {
  const auto& configs = network_by_index(static_cast<int>(state.range(0)));
  const auto graph = Topology::build(configs).router_graph();
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Rng rng(seed++);
    benchmark::DoNotOptimize(k_degree_anonymize(graph, 6, rng).added_edges);
  }
}
BENCHMARK(BM_KDegreeAnonymize)->DenseRange(0, 7)->Unit(benchmark::kMillisecond);

/// The text corpus: USCarrier (range 0), a 1400-router Waxman scale
/// network at bench_scale's seed (range 1), and that network's anonymized
/// output at paper defaults (range 2). Built once, on first use.
struct TextCorpus {
  std::vector<ConfigSet> configs;
  std::vector<std::string> texts;
};

const TextCorpus& text_corpus() {
  static const TextCorpus corpus = [] {
    TextCorpus out;
    out.configs.push_back(canonicalize(make_uscarrier()));
    out.configs.push_back(canonicalize(
        make_scale_network(ScaleFamily::kWaxman, 1400, 0x5CA1E + 1400)));
    const auto run =
        run_pipeline_guarded(out.configs.back(), ConfMaskOptions{});
    if (!run.ok()) {
      throw std::runtime_error("text corpus: anonymization failed");
    }
    out.configs.push_back(canonicalize(run.result->anonymized));
    for (const ConfigSet& configs : out.configs) {
      out.texts.push_back(canonical_config_set_text(configs));
    }
    return out;
  }();
  return corpus;
}

void BM_TextRender(benchmark::State& state) {
  const auto index = static_cast<std::size_t>(state.range(0));
  const ConfigSet& configs = text_corpus().configs[index];
  const std::string& text = text_corpus().texts[index];
  for (auto _ : state) {
    benchmark::DoNotOptimize(canonical_config_set_text(configs).size());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_TextRender)->DenseRange(0, 2)->Unit(benchmark::kMillisecond);

void BM_TextParse(benchmark::State& state) {
  const std::string& text =
      text_corpus().texts[static_cast<std::size_t>(state.range(0))];
  for (auto _ : state) {
    benchmark::DoNotOptimize(parse_config_set(text).routers.size());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_TextParse)->DenseRange(0, 2)->Unit(benchmark::kMillisecond);

void BM_TextJsonQuote(benchmark::State& state) {
  const std::string& text =
      text_corpus().texts[static_cast<std::size_t>(state.range(0))];
  for (auto _ : state) {
    JsonWriter line;
    line.string("configs", text);
    benchmark::DoNotOptimize(std::move(line).str().size());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_TextJsonQuote)->DenseRange(0, 2)->Unit(benchmark::kMillisecond);

void BM_TextDeviceDigests(benchmark::State& state) {
  const std::string& text =
      text_corpus().texts[static_cast<std::size_t>(state.range(0))];
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_device_digests(text).size());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_TextDeviceDigests)
    ->DenseRange(0, 2)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace confmask

BENCHMARK_MAIN();
