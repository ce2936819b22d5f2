// Golden placement table: committed (placement fingerprint, HPWL bit
// pattern) pairs for the MCTS search in every leaf-evaluation mode at
// eval_batch 1 and 4, for every preset through place::run (the RL presets
// at 1 and 4 threads, cold and on a PreparedFlow; the baselines at 4), for
// one job through a 2-worker LocalService, and for global placement alone
// on a Cir-like design, whose rows also pin the QP work counters.
// The pairwise tests elsewhere check A ≡ B; this one checks against answers
// stored before a change, so a refactor that must keep today's placements
// cannot move both sides of a comparison together.  The pool size never
// changes a placement, so each RL preset's t1 row equals its t4 row, and
// the test checks that of the observed rows too.
//
// Absolute bits depend on the build flavour: FMA builds (MP_NATIVE_ARCH on
// an FMA host) round each forward-GEMM term once, every other build twice
// (src/nn/kernels.hpp), so the table holds one set of rows per flavour.
// The no-FMA rows are what the sanitizer trees of scripts/check.sh build.
// A flavour without rows fails and prints what it observed, ready to paste;
// a change that moves results on purpose re-records both flavours in the
// same commit (-DMP_NATIVE_ARCH=OFF gives the no-FMA rows on FMA hosts).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "benchgen/generator.hpp"
#include "benchgen/presets.hpp"
#include "gp/global_placer.hpp"
#include "mcts/mcts.hpp"
#include "obs/obs.hpp"
#include "par/par.hpp"
#include "place/flow.hpp"
#include "place/placer.hpp"
#include "rl/coarse_evaluator.hpp"
#include "rl/trainer.hpp"
#include "svc/job.hpp"
#include "svc/service.hpp"
#include "util/rng.hpp"

namespace mp {
namespace {

struct GoldenRow {
  const char* name;
  std::uint64_t fingerprint;  ///< svc::placement_fingerprint of the design
  std::uint64_t hpwl_bits;    ///< bit pattern of the final HPWL (double)
  /// The run's qp.solves and qp.cg_iterations; -1 in rows that pin no
  /// counters.
  long long qp_solves = -1;
  long long qp_cg_iterations = -1;
};

// Recorded with FMA: the default tree on an x86-64 host with FMA + AVX2.
const std::vector<GoldenRow> kFmaRows = {
    {"mcts.value.b1", 0x1e874febe531a973ull, 0x40e311b8eac57d77ull},
    {"mcts.value.b4", 0x6e9992376896f677ull, 0x40e216a823c058dfull},
    {"mcts.partial.b1", 0x8ff0a237b5c5b370ull, 0x40e304181ef8d8ccull},
    {"mcts.partial.b4", 0x8ff0a237b5c5b370ull, 0x40e304181ef8d8ccull},
    {"mcts.rollout.b1", 0x8671f615b9052d10ull, 0x40e2488b34182efeull},
    {"mcts.rollout.b4", 0xa10d0642579f6d6cull, 0x40e27ca4c30605ccull},
    {"place.mcts.t1", 0xc243f702cd2b4058ull, 0x40eed853e06e5cf6ull},
    {"place.mcts.t4", 0xc243f702cd2b4058ull, 0x40eed853e06e5cf6ull},
    {"place.rl_only.t1", 0x400e21957010c22bull, 0x40ee0e954f0985efull},
    {"place.rl_only.t4", 0x400e21957010c22bull, 0x40ee0e954f0985efull},
    {"place.regulate.t1", 0x600409f77fab22ecull, 0x40f156d16ca0e43dull},
    {"place.regulate.t4", 0x600409f77fab22ecull, 0x40f156d16ca0e43dull},
    {"place.sa.t4", 0x82b87a3a4c836f1bull, 0x40f0cf6ac2619e65ull},
    {"place.wiremask.t4", 0xa45507a2e3df9365ull, 0x40f0cf42a24e1130ull},
    {"place.analytic.t4", 0x9c73108cb128f681ull, 0x40f0d3993e6768eaull},
    {"place.mcts.warm", 0xc243f702cd2b4058ull, 0x40eed853e06e5cf6ull},
    {"place.rl_only.warm", 0x400e21957010c22bull, 0x40ee0e954f0985efull},
    {"place.regulate.warm", 0x600409f77fab22ecull, 0x40f156d16ca0e43dull},
    {"svc.mcts.w2", 0xc907d16358d16ef5ull, 0x40ef2902a487b25cull},
    {"gp.cells", 0x85c7053e650faf6eull, 0x41241873b8112876ull, 17, 761},
    {"gp.mixed.star4", 0xcfb658b7af51249full, 0x41275f47ba4aa3c3ull, 17, 969},
};

// Recorded without FMA: a -DMP_NATIVE_ARCH=OFF tree (x86-64 baseline ISA).
const std::vector<GoldenRow> kPlainRows = {
    {"mcts.value.b1", 0x8dfaa48f67f1f2c9ull, 0x40e2a3a3aa102474ull},
    {"mcts.value.b4", 0xe19ddcce70de05e7ull, 0x40e399f990c93b34ull},
    {"mcts.partial.b1", 0x91cd12bc3373b1b1ull, 0x40e27ae5acbf2896ull},
    {"mcts.partial.b4", 0x2cb52e6ae326224aull, 0x40e39d37fd8e221cull},
    {"mcts.rollout.b1", 0x57b72e16ce8ffba0ull, 0x40e3bd73cb7aa4a4ull},
    {"mcts.rollout.b4", 0xfd19e8890c78e3f3ull, 0x40e2a91da28bed67ull},
    {"place.mcts.t1", 0x40ad9e28d327f729ull, 0x40efd8a302ca7b82ull},
    {"place.mcts.t4", 0x40ad9e28d327f729ull, 0x40efd8a302ca7b82ull},
    {"place.rl_only.t1", 0x59d3b17f4b9e7ba2ull, 0x40ee0e954f0985ecull},
    {"place.rl_only.t4", 0x59d3b17f4b9e7ba2ull, 0x40ee0e954f0985ecull},
    {"place.regulate.t1", 0xb25a2d16d8f4b146ull, 0x40f079b13f952b6eull},
    {"place.regulate.t4", 0xb25a2d16d8f4b146ull, 0x40f079b13f952b6eull},
    {"place.sa.t4", 0x2198ffcbd9f1c42cull, 0x40f077c674b0540full},
    {"place.wiremask.t4", 0xd6dce36feed62610ull, 0x40f0cf42a24e1131ull},
    {"place.analytic.t4", 0x0896b662f9a57e46ull, 0x40ef63e628bd19b5ull},
    {"place.mcts.warm", 0x40ad9e28d327f729ull, 0x40efd8a302ca7b82ull},
    {"place.rl_only.warm", 0x59d3b17f4b9e7ba2ull, 0x40ee0e954f0985ecull},
    {"place.regulate.warm", 0xb25a2d16d8f4b146ull, 0x40f079b13f952b6eull},
    {"svc.mcts.w2", 0x3fe7f46821a8d778ull, 0x40ef62c4bebf00bfull},
    {"gp.cells", 0x9db5c40b10c727eeull, 0x41241873b8112875ull, 17, 761},
    {"gp.mixed.star4", 0x85e0fd8bca00c2beull, 0x41275f47ba4aa3c2ull, 17, 969},
};

#if defined(__FMA__)
const std::vector<GoldenRow>& kRows = kFmaRows;
constexpr const char* kFlavour = "FMA";
#else
const std::vector<GoldenRow>& kRows = kPlainRows;
constexpr const char* kFlavour = "no-FMA";
#endif

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Compares every observed row against the table of this build's flavour.
/// On any mismatch or missing row, fails once more with all observed rows
/// in table syntax.
void expect_golden(const std::vector<GoldenRow>& observed) {
  std::string paste;
  bool all_match = true;
  for (const GoldenRow& o : observed) {
    const GoldenRow* want = nullptr;
    for (const GoldenRow& row : kRows) {
      if (std::string(row.name) == o.name) want = &row;
    }
    if (want == nullptr) {
      ADD_FAILURE() << o.name << ": no " << kFlavour << " row";
      all_match = false;
    } else if (want->fingerprint != o.fingerprint ||
               want->hpwl_bits != o.hpwl_bits) {
      ADD_FAILURE() << o.name << ": placement or HPWL moved";
      all_match = false;
    } else if (want->qp_solves != o.qp_solves ||
               want->qp_cg_iterations != o.qp_cg_iterations) {
      ADD_FAILURE() << o.name << ": QP work moved (qp.solves "
                    << want->qp_solves << " -> " << o.qp_solves
                    << ", qp.cg_iterations " << want->qp_cg_iterations
                    << " -> " << o.qp_cg_iterations << ")";
      all_match = false;
    }
    char line[200];
    if (o.qp_solves >= 0) {
      std::snprintf(line, sizeof(line),
                    "    {\"%s\", 0x%016llxull, 0x%016llxull, %lld, %lld},\n",
                    o.name, static_cast<unsigned long long>(o.fingerprint),
                    static_cast<unsigned long long>(o.hpwl_bits), o.qp_solves,
                    o.qp_cg_iterations);
    } else {
      std::snprintf(line, sizeof(line),
                    "    {\"%s\", 0x%016llxull, 0x%016llxull},\n", o.name,
                    static_cast<unsigned long long>(o.fingerprint),
                    static_cast<unsigned long long>(o.hpwl_bits));
    }
    paste += line;
  }
  if (!all_match) {
    ADD_FAILURE() << "observed " << kFlavour << " rows:\n" << paste;
  }
}

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
// MCTS search: every leaf mode, serial and batched

/// One small fixed design, prepared and with a calibrated reward; the
/// search allocation is finalized onto the design so the row fingerprints
/// a full placement.
struct SearchFixture {
  netlist::Design design;
  place::FlowOptions flow;
  place::FlowContext context;
  std::unique_ptr<rl::PlacementEnv> env;
  std::unique_ptr<rl::CoarseEvaluator> evaluator;
  std::unique_ptr<rl::AgentNetwork> agent;
  rl::RewardCalibration calibration;

  SearchFixture() {
    benchgen::BenchSpec spec;
    spec.movable_macros = 16;
    spec.std_cells = 150;
    spec.nets = 250;
    spec.seed = 82;
    design = benchgen::generate(spec);
    flow.grid_dim = 8;
    flow.initial_gp.max_iterations = 3;
    context = place::prepare_flow(design, flow);
    env = std::make_unique<rl::PlacementEnv>(context.coarse,
                                             context.clustering, context.spec);
    evaluator = std::make_unique<rl::CoarseEvaluator>(context.coarse,
                                                      context.spec);
    rl::AgentConfig config;
    config.grid_dim = 8;
    config.channels = 8;
    config.res_blocks = 1;
    config.seed = 82;
    agent = std::make_unique<rl::AgentNetwork>(config);
    util::Rng rng(82);
    calibration = rl::calibrate_reward(*env, *evaluator, 10, rng);
  }

  GoldenRow search(const char* name, mcts::LeafEvaluation mode,
                   int eval_batch) {
    mcts::MctsOptions options;
    options.explorations_per_move = 8;
    options.eval_batch = eval_batch;
    options.leaf_evaluation = mode;
    mcts::MctsPlacer placer(*env, *evaluator, *agent,
                            calibration.make_reward(0.75), options);
    const mcts::MctsResult result = placer.run();
    const double hpwl =
        place::finalize_placement(design, context, result.anchors, flow);
    return {name, svc::placement_fingerprint(design), bits_of(hpwl)};
  }
};

TEST(Golden, MctsSearchEveryLeafModeAndBatch) {
  struct Case {
    const char* name;
    mcts::LeafEvaluation mode;
    int eval_batch;
  };
  const Case cases[] = {
      {"mcts.value.b1", mcts::LeafEvaluation::kValueNetwork, 1},
      {"mcts.value.b4", mcts::LeafEvaluation::kValueNetwork, 4},
      {"mcts.partial.b1", mcts::LeafEvaluation::kPartialPlacement, 1},
      {"mcts.partial.b4", mcts::LeafEvaluation::kPartialPlacement, 4},
      {"mcts.rollout.b1", mcts::LeafEvaluation::kRandomRollout, 1},
      {"mcts.rollout.b4", mcts::LeafEvaluation::kRandomRollout, 4},
  };
  std::vector<GoldenRow> observed;
  for (const Case& c : cases) {
    observed.push_back(SearchFixture().search(c.name, c.mode, c.eval_batch));
  }
  expect_golden(observed);
}

// ---------------------------------------------------------------------------
// place::run: every preset, the RL ones at 1 and 4 threads.  Self-play runs
// the same windowed loop at every pool size, so each 1-thread row must equal
// its 4-thread row (docs/PARALLELISM.md).

place::PresetKnobs tiny_knobs() {
  place::PresetKnobs knobs;
  knobs.episodes = 6;
  knobs.gamma = 4;
  knobs.grid = 8;
  knobs.channels = 8;
  knobs.blocks = 1;
  return knobs;
}

benchgen::BenchSpec tiny_design_spec() {
  benchgen::BenchSpec spec;
  spec.name = "golden";
  spec.movable_macros = 8;
  spec.std_cells = 300;
  spec.nets = 400;
  spec.io_pads = 16;
  spec.seed = 5;
  return spec;
}

/// The ECO input: an analytic-baseline incumbent under a perturbed netlist.
netlist::Design eco_input() {
  netlist::Design base = benchgen::generate(tiny_design_spec());
  place::run(base, place::spec_from_preset(place::Preset::kAnalytic,
                                           tiny_knobs()));
  benchgen::PerturbSpec delta;
  delta.seed = 11;
  delta.add_nets = 10;
  delta.remove_nets = 4;
  return benchgen::perturb(base, delta);
}

GoldenRow run_preset(const char* name, place::Preset preset,
                     netlist::Design design, int threads) {
  ThreadGuard guard(threads);
  const place::PlaceResult r =
      place::run(design, place::spec_from_preset(preset, tiny_knobs()));
  EXPECT_TRUE(r.finalized) << name;
  return {name, svc::placement_fingerprint(design), bits_of(r.hpwl)};
}

TEST(Golden, PlaceRunPresetsAtOneAndFourThreads) {
  const netlist::Design fresh = benchgen::generate(tiny_design_spec());
  const netlist::Design eco = eco_input();
  const std::vector<GoldenRow> observed = {
      run_preset("place.mcts.t1", place::Preset::kMcts, fresh, 1),
      run_preset("place.mcts.t4", place::Preset::kMcts, fresh, 4),
      run_preset("place.rl_only.t1", place::Preset::kRlOnly, fresh, 1),
      run_preset("place.rl_only.t4", place::Preset::kRlOnly, fresh, 4),
      run_preset("place.regulate.t1", place::Preset::kRegulate, eco, 1),
      run_preset("place.regulate.t4", place::Preset::kRegulate, eco, 4),
  };
  expect_golden(observed);
  for (std::size_t i = 0; i < observed.size(); i += 2) {
    EXPECT_EQ(observed[i].fingerprint, observed[i + 1].fingerprint)
        << observed[i].name << " vs " << observed[i + 1].name;
    EXPECT_EQ(observed[i].hpwl_bits, observed[i + 1].hpwl_bits)
        << observed[i].name << " vs " << observed[i + 1].name;
  }
}

TEST(Golden, BaselinePresetsAtFourThreads) {
  const netlist::Design fresh = benchgen::generate(tiny_design_spec());
  expect_golden({
      run_preset("place.sa.t4", place::Preset::kSa, fresh, 4),
      run_preset("place.wiremask.t4", place::Preset::kWiremask, fresh, 4),
      run_preset("place.analytic.t4", place::Preset::kAnalytic, fresh, 4),
  });
}

/// place::run at 4 threads on a PreparedFlow: prepare_flow for the
/// from-scratch presets, prepare_regulate_flow for regulate (the warm
/// artifacts of the placement service).
GoldenRow run_prepared(const char* name, place::Preset preset,
                       netlist::Design design) {
  ThreadGuard guard(4);
  const place::PlacerSpec spec = place::spec_from_preset(preset, tiny_knobs());
  place::PreparedFlow prepared{
      preset == place::Preset::kRegulate
          ? place::prepare_regulate_flow(design, spec.regulate.flow)
          : place::prepare_flow(design, spec.mcts_rl.flow)};
  const place::PlaceResult r = place::run(design, spec, &prepared);
  EXPECT_TRUE(r.finalized) << name;
  return {name, svc::placement_fingerprint(design), bits_of(r.hpwl)};
}

TEST(Golden, PlaceRunOnPreparedFlow) {
  const netlist::Design fresh = benchgen::generate(tiny_design_spec());
  const netlist::Design eco = eco_input();
  expect_golden({
      run_prepared("place.mcts.warm", place::Preset::kMcts, fresh),
      run_prepared("place.rl_only.warm", place::Preset::kRlOnly, fresh),
      run_prepared("place.regulate.warm", place::Preset::kRegulate, eco),
  });
}

// ---------------------------------------------------------------------------
// Service: one mcts job on a 2-worker LocalService

TEST(Golden, TwoWorkerServiceMctsJob) {
  const svc::JobSpec job = svc::parse_job_spec(svc::Json::parse(R"({
      "synthetic": {"name": "golden", "movable_macros": 8, "std_cells": 300,
                    "nets": 400, "io_pads": 16, "seed": 6},
      "preset": "mcts", "seed": 2, "episodes": 6, "gamma": 4, "grid": 8,
      "channels": 8, "blocks": 1})"));
  svc::ServiceOptions options;
  options.stream_progress = false;
  options.workers = 2;
  svc::LocalService service(options);
  const svc::Scheduler::SubmitResult submitted = service.submit(job);
  ASSERT_TRUE(submitted.accepted) << submitted.error;
  ASSERT_TRUE(service.wait(submitted.id, 600.0));
  const auto snap = service.status(submitted.id);
  ASSERT_TRUE(snap.has_value());
  ASSERT_EQ(snap->state, svc::JobState::kDone) << snap->error;
  expect_golden({{"svc.mcts.w2", snap->outcome.placement_hash,
                  bits_of(snap->outcome.hpwl)}});
}

// ---------------------------------------------------------------------------
// Global placement alone: the QP path on a Cir-like design (preplaced
// macros, hierarchy), in cell mode with the default QP options and in mixed
// mode with star nets above 4 pins, so star variables are common.

GoldenRow run_global_place(const char* name,
                           const gp::GlobalPlaceOptions& options) {
  obs::set_enabled(true);
  obs::Counter& solves = obs::Registry::global().counter("qp.solves");
  obs::Counter& iterations =
      obs::Registry::global().counter("qp.cg_iterations");
  netlist::Design design =
      benchgen::generate(benchgen::industrial_spec(0, 0.01));
  const long long solves_before = solves.value();
  const long long iterations_before = iterations.value();
  const gp::GlobalPlaceResult r = gp::global_place(design, options);
  return {name, svc::placement_fingerprint(design), bits_of(r.hpwl),
          solves.value() - solves_before,
          iterations.value() - iterations_before};
}

TEST(Golden, GlobalPlaceQpPath) {
  gp::GlobalPlaceOptions mixed;
  mixed.move_macros = true;
  mixed.qp.clique_max_degree = 4;
  expect_golden({
      run_global_place("gp.cells", {}),
      run_global_place("gp.mixed.star4", mixed),
  });
}

}  // namespace
}  // namespace mp
