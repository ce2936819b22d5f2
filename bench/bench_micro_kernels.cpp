// Google-benchmark micro kernels for the library's hot paths: HPWL, CG
// solve, one QP solve, one global placement, GEMM, conv2d forward/backward,
// agent forward, availability map and the sequence-pair legalization LP.
//
// Besides the usual console output, the explicit main() below captures every
// run through an ArtifactReporter and writes BENCH_micro_kernels.json
// (bench/artifact.hpp schema) so the kernel timings join the committed perf
// trajectory in results/.

#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <vector>

#include "artifact.hpp"
#include "benchgen/generator.hpp"
#include "gp/global_placer.hpp"
#include "grid/occupancy.hpp"
#include "legal/lp_legalizer.hpp"
#include "linalg/cg.hpp"
#include "nn/kernels.hpp"
#include "nn/layers.hpp"
#include "qp/quadratic.hpp"
#include "rl/agent.hpp"
#include "util/rng.hpp"

using namespace mp;

namespace {

netlist::Design make_design(int cells) {
  benchgen::BenchSpec spec;
  spec.movable_macros = 16;
  spec.std_cells = cells;
  spec.nets = cells * 3 / 2;
  spec.seed = 7;
  return benchgen::generate(spec);
}

void BM_TotalHpwl(benchmark::State& state) {
  const netlist::Design d = make_design(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.total_hpwl());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(d.num_nets()));
}
BENCHMARK(BM_TotalHpwl)->Arg(1000)->Arg(10000);

void BM_ConjugateGradient(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(3);
  linalg::TripletBuilder b(static_cast<std::size_t>(n));
  for (int i = 1; i < n; ++i) {
    b.add_connection(static_cast<std::size_t>(i - 1),
                     static_cast<std::size_t>(i), 1.0);
  }
  for (int e = 0; e < 2 * n; ++e) {
    const int i = rng.uniform_int(0, n - 1);
    const int j = rng.uniform_int(0, n - 1);
    if (i != j) {
      b.add_connection(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                       rng.uniform(0.1, 1.0));
    }
  }
  b.add_diagonal(0, 1.0);
  const linalg::CsrMatrix a = linalg::CsrMatrix::from_triplets(b);
  linalg::Vec rhs(static_cast<std::size_t>(n), 1.0);
  for (auto _ : state) {
    linalg::Vec x;
    benchmark::DoNotOptimize(linalg::conjugate_gradient(a, rhs, x));
  }
}
BENCHMARK(BM_ConjugateGradient)->Arg(1000)->Arg(10000);

void BM_QuadraticPlacement(benchmark::State& state) {
  netlist::Design d = make_design(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    qp::solve_quadratic_placement(d, d.std_cells());
  }
}
BENCHMARK(BM_QuadraticPlacement)->Arg(1000)->Arg(5000);

// Global placement with default options on a fresh copy of the design: the
// unanchored solve plus one anchored solve per spreading pass, all on one
// assembled QP system.
void BM_GlobalPlace(benchmark::State& state) {
  const netlist::Design base = make_design(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    netlist::Design d = base;
    state.ResumeTiming();
    benchmark::DoNotOptimize(gp::global_place(d).hpwl);
  }
}
BENCHMARK(BM_GlobalPlace)->Arg(5000);

// GEMM at the conv-as-GEMM shapes of the agent's 16x16 grid: M = out_c,
// K = in_c * 3 * 3, N = h * w.  The naive reference kernel vs the blocked /
// SIMD default (bit-identical outputs; see nn/kernels.hpp) — the artifact
// ratio real_ns(naive) / real_ns(blocked) is the blocked kernels' speedup
// (acceptance: >= 2x single-thread).
std::vector<float> random_floats(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> out(n);
  for (float& v : out) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return out;
}

void BM_GemmNaive(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const int n = static_cast<int>(state.range(2));
  const std::vector<float> a = random_floats(
      static_cast<std::size_t>(m) * static_cast<std::size_t>(k), 11);
  const std::vector<float> b = random_floats(
      static_cast<std::size_t>(k) * static_cast<std::size_t>(n), 12);
  std::vector<float> out(static_cast<std::size_t>(m) *
                         static_cast<std::size_t>(n));
  for (auto _ : state) {
    std::fill(out.begin(), out.end(), 0.0f);
    nn::gemm_acc_naive(a.data(), b.data(), out.data(), m, k, n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) * 2 * m * k *
                          n);
}
BENCHMARK(BM_GemmNaive)->Args({32, 288, 256})->Args({128, 1152, 256});

void BM_GemmBlocked(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const int n = static_cast<int>(state.range(2));
  const std::vector<float> a = random_floats(
      static_cast<std::size_t>(m) * static_cast<std::size_t>(k), 11);
  const std::vector<float> b = random_floats(
      static_cast<std::size_t>(k) * static_cast<std::size_t>(n), 12);
  std::vector<float> out(static_cast<std::size_t>(m) *
                         static_cast<std::size_t>(n));
  for (auto _ : state) {
    std::fill(out.begin(), out.end(), 0.0f);
    nn::gemm_acc(a.data(), b.data(), out.data(), m, k, n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) * 2 * m * k *
                          n);
}
BENCHMARK(BM_GemmBlocked)->Args({32, 288, 256})->Args({128, 1152, 256});

void BM_Conv2dForward(benchmark::State& state) {
  util::Rng rng(5);
  const int channels = static_cast<int>(state.range(0));
  nn::Conv2d conv(channels, channels, 3, rng);
  nn::Tensor x({channels, 16, 16});
  x.fill(0.5f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(x, false));
  }
}
BENCHMARK(BM_Conv2dForward)->Arg(32)->Arg(128);

void BM_Conv2dBackward(benchmark::State& state) {
  util::Rng rng(6);
  const int channels = static_cast<int>(state.range(0));
  nn::Conv2d conv(channels, channels, 3, rng);
  nn::Tensor x({channels, 16, 16});
  x.fill(0.5f);
  nn::Tensor g = conv.forward(x, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.backward(g));
  }
}
BENCHMARK(BM_Conv2dBackward)->Arg(32)->Arg(128);

void BM_AgentForward(benchmark::State& state) {
  rl::AgentConfig config;
  config.grid_dim = 16;
  config.channels = static_cast<int>(state.range(0));
  config.res_blocks = static_cast<int>(state.range(1));
  rl::AgentNetwork agent(config);
  const std::vector<double> sp(256, 0.3);
  const std::vector<double> avail(256, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.forward(sp, avail, 3, 20, false));
  }
}
BENCHMARK(BM_AgentForward)->Args({24, 2})->Args({32, 3})->Args({128, 10});

void BM_AvailabilityMap(benchmark::State& state) {
  const grid::GridSpec spec(geometry::Rect(0, 0, 160, 160), 16);
  grid::OccupancyMap occ(spec);
  occ.place(grid::make_footprint(spec, 25.0, 18.0), {2, 3});
  occ.place(grid::make_footprint(spec, 12.0, 40.0), {9, 6});
  const grid::Footprint fp = grid::make_footprint(
      spec, static_cast<double>(state.range(0)), 15.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(grid::availability_map(occ, fp));
  }
}
BENCHMARK(BM_AvailabilityMap)->Arg(8)->Arg(35);

void BM_LpLegalizeComponent(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    util::Rng rng(9);
    netlist::Design d("d", geometry::Rect(0, 0, 200, 200));
    std::vector<netlist::NodeId> macros;
    for (int i = 0; i < n; ++i) {
      netlist::Node m;
      m.name = "m" + std::to_string(i);
      m.kind = netlist::NodeKind::kMacro;
      m.width = rng.uniform(8, 20);
      m.height = rng.uniform(8, 20);
      m.position = {100 + rng.uniform(-15, 15), 100 + rng.uniform(-15, 15)};
      macros.push_back(d.add_node(m));
    }
    state.ResumeTiming();
    legal::lp_legalize_component(d, macros, d.region());
  }
}
BENCHMARK(BM_LpLegalizeComponent)->Arg(4)->Arg(10)->Arg(20);

// Console output as usual, plus per-run adjusted real/CPU ns collected for
// the BENCH_micro_kernels.json artifact.
class ArtifactReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      const std::string name = run.benchmark_name();
      metrics_[name + ".real_ns"] = run.GetAdjustedRealTime();
      metrics_[name + ".cpu_ns"] = run.GetAdjustedCPUTime();
    }
  }
  const std::map<std::string, double>& metrics() const { return metrics_; }

 private:
  std::map<std::string, double> metrics_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ArtifactReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  mp::bench::BenchArtifact artifact;
  artifact.name = "micro_kernels";
  artifact.metrics = reporter.metrics();
  const std::string path = artifact.write();
  if (!path.empty()) std::printf("artifact: %s\n", path.c_str());
  return path.empty() ? 1 : 0;
}
