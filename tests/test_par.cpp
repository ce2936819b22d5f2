// Tests for the par:: parallel-execution subsystem and the determinism
// contract of every parallelized hot path (docs/PARALLELISM.md): results
// must be a pure function of the inputs and the algorithm parameters —
// never of the worker-pool size.  The whole binary carries the `par` ctest
// label; scripts/check.sh runs it under ThreadSanitizer by default.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "benchgen/generator.hpp"
#include "gp/density.hpp"
#include "linalg/sparse.hpp"
#include "mcts/mcts.hpp"
#include "obs/obs.hpp"
#include "par/par.hpp"
#include "place/flow.hpp"
#include "rl/coarse_evaluator.hpp"
#include "rl/trainer.hpp"
#include "util/rng.hpp"

namespace mp {
namespace {

/// Restores the previous pool size when a test scope ends, so thread-count
/// overrides never leak between tests.
class ThreadGuard {
 public:
  explicit ThreadGuard(int threads) : saved_(par::num_threads()) {
    par::set_num_threads(threads);
  }
  ~ThreadGuard() { par::set_num_threads(saved_); }

 private:
  int saved_;
};

// ---------------------------------------------------------------------------
// Rng::split
// ---------------------------------------------------------------------------

TEST(RngSplit, ReproducibleAndStreamDependent) {
  util::Rng parent1(1234);
  util::Rng parent2(1234);
  util::Rng a = parent1.split(7);
  util::Rng b = parent2.split(7);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64()) << "same parent+stream must agree";
  }
  util::Rng c = parent1.split(8);
  bool differs = false;
  util::Rng a2 = parent1.split(7);
  for (int i = 0; i < 16; ++i) {
    if (a2.next_u64() != c.next_u64()) differs = true;
  }
  EXPECT_TRUE(differs) << "distinct streams must diverge";
}

TEST(RngSplit, DoesNotAdvanceParent) {
  util::Rng parent(99);
  util::Rng witness(99);
  (void)parent.split(0);
  (void)parent.split(1);
  (void)parent.split(0xffffffffffffULL);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(parent.next_u64(), witness.next_u64());
  }
}

TEST(RngSplit, StreamsLookIndependent) {
  // Crude independence check: means of distinct streams stay near 0.5.
  util::Rng parent(5);
  for (std::uint64_t s = 0; s < 8; ++s) {
    util::Rng child = parent.split(s);
    double mean = 0.0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) mean += child.uniform();
    mean /= n;
    EXPECT_NEAR(mean, 0.5, 0.05) << "stream " << s;
  }
}

// ---------------------------------------------------------------------------
// parallel_for / parallel_reduce
// ---------------------------------------------------------------------------

TEST(ParallelFor, CoversRangeExactlyOnce) {
  ThreadGuard guard(4);
  const std::size_t n = 10001;
  std::vector<int> hits(n, 0);
  par::parallel_for(0, n, 97, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i] += 1;
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadGuard guard(4);
  bool ran = false;
  par::parallel_for(5, 5, 1, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelFor, NestedRunsInline) {
  ThreadGuard guard(4);
  std::atomic<int> outer{0};
  std::atomic<int> inner{0};
  par::parallel_for(0, 8, 1, [&](std::size_t lo, std::size_t hi) {
    outer.fetch_add(static_cast<int>(hi - lo));
    EXPECT_TRUE(par::in_worker() || par::num_threads() == 1);
    // Nested region: must execute inline on this worker, not deadlock.
    par::parallel_for(0, 4, 1, [&](std::size_t l2, std::size_t h2) {
      inner.fetch_add(static_cast<int>(h2 - l2));
    });
  });
  EXPECT_EQ(outer.load(), 8);
  EXPECT_EQ(inner.load(), 32);
}

double reduce_sum(std::size_t n, std::size_t grain) {
  // A sum whose terms vary in magnitude, so association order matters in
  // floating point and any chunking change would show.
  return par::parallel_reduce(
      std::size_t{0}, n, grain, 0.0,
      [](std::size_t lo, std::size_t hi) {
        double s = 0.0;
        for (std::size_t i = lo; i < hi; ++i) {
          s += std::sin(static_cast<double>(i)) *
               std::exp(-static_cast<double>(i % 37) / 7.0);
        }
        return s;
      },
      [](double a, double b) { return a + b; });
}

TEST(ParallelReduce, BitIdenticalAcrossThreadCounts) {
  const std::size_t n = 100000;
  double r1, r8;
  {
    ThreadGuard guard(1);
    r1 = reduce_sum(n, 1024);
  }
  {
    ThreadGuard guard(8);
    r8 = reduce_sum(n, 1024);
  }
  EXPECT_EQ(r1, r8) << "parallel_reduce must not depend on the pool size";
}

TEST(ParallelReduce, MatchesSerialWhenSingleChunk) {
  ThreadGuard guard(8);
  // grain >= n → one chunk → plain left-to-right accumulation.
  const double one_chunk = reduce_sum(1000, 100000);
  double serial = 0.0;
  for (std::size_t i = 0; i < 1000; ++i) {
    serial += std::sin(static_cast<double>(i)) *
              std::exp(-static_cast<double>(i % 37) / 7.0);
  }
  EXPECT_EQ(one_chunk, serial);
}

// ---------------------------------------------------------------------------
// Pool + concurrent observability stress (the TSan target)
// ---------------------------------------------------------------------------

TEST(ParStress, PoolAndObsUnderConcurrency) {
  ThreadGuard guard(8);
  obs::Counter& counter = obs::Registry::global().counter("par_test.stress");
  obs::Histogram& hist = obs::Registry::global().histogram("par_test.hist");
  const long long base = counter.value();
  std::atomic<long long> work{0};
  for (int round = 0; round < 50; ++round) {
    par::parallel_for(0, 256, 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        counter.add(1);
        hist.record(static_cast<double>(i % 17) + 0.5);
        work.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  EXPECT_EQ(work.load(), 50 * 256);
  EXPECT_EQ(counter.value() - base, 50 * 256);
  const obs::HistogramSnapshot snap = hist.snapshot();
  EXPECT_GE(snap.count, 50 * 256);
  EXPECT_GE(snap.min, 0.5);
  EXPECT_LE(snap.max, 17.0);
}

TEST(ParStress, ExceptionInTaskPropagates) {
  ThreadGuard guard(4);
  EXPECT_THROW(
      par::parallel_for(0, 64, 1,
                        [&](std::size_t lo, std::size_t) {
                          if (lo == 32) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // Pool must still be usable afterwards.
  std::atomic<int> n{0};
  par::parallel_for(0, 16, 1, [&](std::size_t lo, std::size_t hi) {
    n.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(n.load(), 16);
}

// ---------------------------------------------------------------------------
// Shared Design: the const accessors are pure reads (the TSan target)
// ---------------------------------------------------------------------------

/// Node-by-node copy through add_node/add_net, so nothing has read any index
/// of the result yet.
netlist::Design rebuilt(const netlist::Design& source) {
  netlist::Design design(source.name(), source.region());
  for (const netlist::Node& node : source.nodes()) design.add_node(node);
  for (const netlist::Net& net : source.nets()) design.add_net(net);
  return design;
}

struct DesignReads {
  std::vector<netlist::NodeId> macros, movable_macros, std_cells, pads;
  std::vector<std::vector<netlist::NetId>> node_nets;
};

TEST(ParDesign, ConcurrentFirstReadsMatchSerialReference) {
  benchgen::BenchSpec spec;
  spec.movable_macros = 12;
  spec.std_cells = 400;
  spec.nets = 500;
  spec.seed = 88;
  const netlist::Design source = benchgen::generate(spec);
  const netlist::Design reference = rebuilt(source);
  const DesignReads expected{reference.macros(), reference.movable_macros(),
                             reference.std_cells(), reference.pads(),
                             reference.node_nets()};
  const netlist::DesignStats stats = source.stats();
  EXPECT_EQ(expected.movable_macros.size(),
            static_cast<std::size_t>(stats.movable_macros));
  EXPECT_EQ(expected.std_cells.size(),
            static_cast<std::size_t>(stats.standard_cells));
  EXPECT_EQ(expected.node_nets.size(), source.num_nodes());

  // Four workers make their first reads of a fresh design at the same time:
  // each waits on a relaxed counter (no happens-before edge between
  // workers) until all four hold a task, then reads in its own order.
  constexpr int kWorkers = 4;
  ThreadGuard guard(kWorkers);
  const netlist::Design fresh = rebuilt(source);
  std::atomic<int> arrived{0};
  std::vector<DesignReads> seen(kWorkers);
  par::parallel_for(0, kWorkers, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t w = lo; w < hi; ++w) {
      arrived.fetch_add(1, std::memory_order_relaxed);
      for (int spin = 0; spin < 1000000 &&
                         arrived.load(std::memory_order_relaxed) < kWorkers;
           ++spin) {
        std::this_thread::yield();
      }
      DesignReads& r = seen[w];
      if (w % 2 == 0) r.node_nets = fresh.node_nets();
      r.pads = fresh.pads();
      r.std_cells = fresh.std_cells();
      r.movable_macros = fresh.movable_macros();
      r.macros = fresh.macros();
      if (w % 2 == 1) r.node_nets = fresh.node_nets();
    }
  });
  for (int w = 0; w < kWorkers; ++w) {
    const DesignReads& r = seen[static_cast<std::size_t>(w)];
    EXPECT_EQ(r.macros, expected.macros) << "worker " << w;
    EXPECT_EQ(r.movable_macros, expected.movable_macros) << "worker " << w;
    EXPECT_EQ(r.std_cells, expected.std_cells) << "worker " << w;
    EXPECT_EQ(r.pads, expected.pads) << "worker " << w;
    EXPECT_EQ(r.node_nets, expected.node_nets) << "worker " << w;
  }
}

// ---------------------------------------------------------------------------
// Data-parallel kernels: bit-identical at every thread count
// ---------------------------------------------------------------------------

linalg::Vec spmv_once(int threads) {
  ThreadGuard guard(threads);
  const std::size_t n = 6000;
  linalg::TripletBuilder builder(n);
  util::Rng rng(42);
  for (std::size_t i = 0; i < n; ++i) {
    builder.add_diagonal(i, 4.0 + rng.uniform());
    for (int k = 0; k < 4; ++k) {
      const std::size_t j =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(n) - 1));
      if (j != i) builder.add_connection(i, j, rng.uniform());
    }
  }
  const linalg::CsrMatrix m = linalg::CsrMatrix::from_triplets(builder);
  linalg::Vec x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = rng.uniform(-1.0, 1.0);
  return m.multiply(x);
}

TEST(ParKernels, SpmvBitIdenticalAcrossThreadCounts) {
  const linalg::Vec y1 = spmv_once(1);
  const linalg::Vec y8 = spmv_once(8);
  ASSERT_EQ(y1.size(), y8.size());
  for (std::size_t i = 0; i < y1.size(); ++i) {
    ASSERT_EQ(y1[i], y8[i]) << "row " << i;
  }
}

std::vector<geometry::Rect> density_rects(std::vector<unsigned char>& movable) {
  util::Rng rng(7);
  std::vector<geometry::Rect> rects;
  for (int i = 0; i < 400; ++i) {
    rects.push_back({rng.uniform(0.0, 90.0), rng.uniform(0.0, 90.0),
                     rng.uniform(0.5, 9.0), rng.uniform(0.5, 9.0)});
    movable.push_back(i % 3 == 0 ? 0 : 1);
  }
  return rects;
}

TEST(ParKernels, DensityAddAllMatchesIncrementalAndThreadCounts) {
  const geometry::Rect region{0.0, 0.0, 100.0, 100.0};
  std::vector<unsigned char> movable;
  const std::vector<geometry::Rect> rects = density_rects(movable);

  gp::DensityGrid reference(region, 16, 0.9);
  for (std::size_t i = 0; i < rects.size(); ++i) {
    if (movable[i] != 0) {
      reference.add_movable(rects[i]);
    } else {
      reference.add_fixed(rects[i]);
    }
  }

  for (int threads : {1, 2, 8}) {
    ThreadGuard guard(threads);
    gp::DensityGrid grid(region, 16, 0.9);
    grid.add_all(rects, movable);
    for (int by = 0; by < 16; ++by) {
      for (int bx = 0; bx < 16; ++bx) {
        ASSERT_EQ(grid.usage(bx, by), reference.usage(bx, by))
            << "usage bin (" << bx << "," << by << ") threads=" << threads;
        ASSERT_EQ(grid.capacity(bx, by), reference.capacity(bx, by))
            << "capacity bin (" << bx << "," << by << ") threads=" << threads;
      }
    }
    EXPECT_EQ(grid.overflow_ratio(), reference.overflow_ratio());
  }
}

// ---------------------------------------------------------------------------
// MCTS: committed moves depend on eval_batch, never on the pool size
// ---------------------------------------------------------------------------

struct McstFixture {
  netlist::Design design;
  place::FlowContext context;
  std::unique_ptr<rl::PlacementEnv> env;
  std::unique_ptr<rl::CoarseEvaluator> evaluator;
  std::unique_ptr<rl::AgentNetwork> agent;
  rl::RewardCalibration calibration;

  explicit McstFixture(std::uint64_t seed, int macros = 8, int grid_dim = 4) {
    benchgen::BenchSpec spec;
    spec.movable_macros = macros;
    spec.std_cells = 120;
    spec.nets = 200;
    spec.seed = seed;
    design = benchgen::generate(spec);
    place::FlowOptions options;
    options.grid_dim = grid_dim;
    options.initial_gp.max_iterations = 2;
    context = place::prepare_flow(design, options);
    env = std::make_unique<rl::PlacementEnv>(context.coarse,
                                             context.clustering, context.spec);
    evaluator = std::make_unique<rl::CoarseEvaluator>(context.coarse,
                                                      context.spec);
    rl::AgentConfig config;
    config.grid_dim = grid_dim;
    config.channels = 8;
    config.res_blocks = 1;
    config.seed = seed;
    agent = std::make_unique<rl::AgentNetwork>(config);
    util::Rng rng(seed);
    calibration = rl::calibrate_reward(*env, *evaluator, 8, rng);
  }
};

mcts::MctsResult run_batched_mcts(McstFixture& f, int eval_batch) {
  mcts::MctsOptions options;
  options.explorations_per_move = 12;
  options.eval_batch = eval_batch;
  options.seed = 11;
  mcts::MctsPlacer placer(*f.env, *f.evaluator, *f.agent,
                          f.calibration.make_reward(0.75), options);
  return placer.run();
}

TEST(ParMcts, BatchedSearchIdenticalAcrossThreadCounts) {
  // Fixed eval_batch, varying pool size: the committed move sequence and the
  // final wirelength must be bit-identical — tree parallelism changes how
  // fast the batch evaluates, not what it computes.
  McstFixture f1(83);
  McstFixture f8(83);
  mcts::MctsResult r1, r8;
  {
    ThreadGuard guard(1);
    r1 = run_batched_mcts(f1, 4);
  }
  {
    ThreadGuard guard(8);
    r8 = run_batched_mcts(f8, 4);
  }
  ASSERT_EQ(r1.anchors.size(), r8.anchors.size());
  for (std::size_t i = 0; i < r1.anchors.size(); ++i) {
    EXPECT_EQ(r1.anchors[i].gx, r8.anchors[i].gx) << "anchor " << i;
    EXPECT_EQ(r1.anchors[i].gy, r8.anchors[i].gy) << "anchor " << i;
  }
  EXPECT_EQ(r1.wirelength, r8.wirelength);
  EXPECT_EQ(r1.committed_wirelength, r8.committed_wirelength);
  EXPECT_EQ(r1.nn_evaluations, r8.nn_evaluations);
  EXPECT_EQ(r1.terminal_evaluations, r8.terminal_evaluations);
}

TEST(ParMcts, SerialBatchOneIdenticalAcrossThreadCounts) {
  // eval_batch == 1 is the legacy serial search; with more threads only the
  // bit-identical kernels (SpMV) run in parallel, so everything matches.
  McstFixture f1(84);
  McstFixture f8(84);
  mcts::MctsResult r1, r8;
  {
    ThreadGuard guard(1);
    r1 = run_batched_mcts(f1, 1);
  }
  {
    ThreadGuard guard(8);
    r8 = run_batched_mcts(f8, 1);
  }
  ASSERT_EQ(r1.anchors.size(), r8.anchors.size());
  for (std::size_t i = 0; i < r1.anchors.size(); ++i) {
    EXPECT_EQ(r1.anchors[i].gx, r8.anchors[i].gx) << "anchor " << i;
    EXPECT_EQ(r1.anchors[i].gy, r8.anchors[i].gy) << "anchor " << i;
  }
  EXPECT_EQ(r1.wirelength, r8.wirelength);
}

TEST(ParMcts, BatchedSearchProducesCompleteAllocation) {
  ThreadGuard guard(4);
  McstFixture f(85);
  const mcts::MctsResult result = run_batched_mcts(f, 8);
  EXPECT_EQ(result.anchors.size(), f.context.clustering.macro_groups.size());
  EXPECT_TRUE(std::isfinite(result.wirelength));
  EXPECT_GT(result.wirelength, 0.0);
  EXPECT_GT(result.nn_evaluations, 0);
}

// ---------------------------------------------------------------------------
// RL self-play: one windowed loop, deterministic across pool sizes
// ---------------------------------------------------------------------------

/// Trains f's agent on `evaluator`, or on f's own evaluator when null.
rl::TrainResult train_once(McstFixture& f, int threads,
                           rl::AllocationEvaluator* evaluator = nullptr) {
  ThreadGuard guard(threads);
  rl::TrainOptions options;
  options.episodes = 8;
  options.update_window = 4;
  options.calibration_episodes = 5;
  return rl::train_agent(*f.env, evaluator ? *evaluator : *f.evaluator,
                         *f.agent, options);
}

void expect_same_training(const rl::TrainResult& a, const rl::TrainResult& b) {
  ASSERT_EQ(a.episodes.size(), b.episodes.size());
  for (std::size_t i = 0; i < a.episodes.size(); ++i) {
    EXPECT_EQ(a.episodes[i].wirelength, b.episodes[i].wirelength)
        << "episode " << i;
    EXPECT_EQ(a.episodes[i].reward, b.episodes[i].reward) << "episode " << i;
  }
  EXPECT_EQ(a.best_wirelength, b.best_wirelength);
  EXPECT_EQ(a.optimizer_steps, b.optimizer_steps);
}

TEST(ParTrainer, ParallelSelfPlayIdenticalAcrossThreadCounts) {
  // One thread runs the same windowed loop as a wide pool, on slot 0 alone.
  McstFixture f1(86);
  McstFixture f2(86);
  McstFixture f8(86);
  const rl::TrainResult r1 = train_once(f1, 1);
  const rl::TrainResult r2 = train_once(f2, 2);
  const rl::TrainResult r8 = train_once(f8, 8);
  EXPECT_EQ(r1.episodes.size(), 8u);
  EXPECT_EQ(r1.optimizer_steps, 2);
  EXPECT_TRUE(std::isfinite(r1.best_wirelength));
  expect_same_training(r1, r2);
  expect_same_training(r1, r8);
}

/// Forwards to another evaluator and keeps the base class's clone(), which
/// returns nullptr.
class UnclonableEvaluator : public rl::AllocationEvaluator {
 public:
  explicit UnclonableEvaluator(rl::AllocationEvaluator& inner)
      : inner_(inner) {}
  double evaluate(const std::vector<grid::CellCoord>& anchors) override {
    return inner_.evaluate(anchors);
  }

 private:
  rl::AllocationEvaluator& inner_;
};

TEST(ParTrainer, UnclonableEvaluatorMatchesClonable) {
  // An evaluator that cannot be cloned rolls out on slot 0 alone, at any
  // pool width, and still trains exactly as a clonable one.
  McstFixture clonable(88);
  McstFixture unclonable(88);
  UnclonableEvaluator forwarding(*unclonable.evaluator);
  const rl::TrainResult a = train_once(clonable, 4);
  const rl::TrainResult b = train_once(unclonable, 4, &forwarding);
  EXPECT_EQ(a.episodes.size(), 8u);
  expect_same_training(a, b);
}

}  // namespace
}  // namespace mp
