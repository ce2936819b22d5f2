#pragma once
// The benchmark's three workloads (mpbench/README.md records why each was
// chosen and which layer it should move).  Every input is a pure function of
// the workload seed; the program receives only the generated inputs.

#include <cstdint>
#include <string>
#include <vector>

#include "benchgen/generator.hpp"
#include "place/placer.hpp"

namespace mpbench {

/// From-scratch paper flow (preset mcts) on one generated design, run by one
/// caller placing it back to back.
struct FlowWorkload {
  mp::benchgen::BenchSpec design;
  mp::place::PresetKnobs knobs;
};

/// Open-loop stream of ECO jobs (preset regulate, job schema 2) through the
/// socket service.
struct EcoWorkload {
  mp::benchgen::BenchSpec base;       ///< design placed from scratch in setup
  std::uint64_t delta_seed = 0;       ///< draws the changed netlists
  mp::place::PresetKnobs incumbent;   ///< knobs of that from-scratch placement
  mp::place::PresetKnobs job;         ///< knobs every ECO job carries
  int add_nets_pct = 10;              ///< ECO delta: nets added, % of base
  int remove_nets_pct = 5;            ///< ECO delta: nets removed, % of base
  int repeat_gap = 5;                 ///< jobs between a netlist's two sends
  int min_stream_jobs = 100;          ///< ≥100 so p90 has ten samples beyond
  double rate_per_s = 0.0;            ///< Poisson arrival rate of the stream
  int burst_jobs = 20;                ///< queued at once to measure capacity
  int bursts = 3;                     ///< capacity is the median burst
  int workers = 2;                    ///< service workers (one thread each)
};

/// Names accepted by --workload, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for a name that is not a flow workload.
FlowWorkload flow_workload(const std::string& name, std::uint64_t seed);

EcoWorkload eco_workload(std::uint64_t seed);

/// Deterministic 64-bit mix of the workload seed and a per-input salt.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

}  // namespace mpbench
