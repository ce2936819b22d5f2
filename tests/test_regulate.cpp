// Tests for the incremental/ECO regulate preset (src/place/regulate_placer)
// and the schema-2 job model behind it: trust-region contracts (radius,
// frozen, HPWL <= legal input), bit-identity across thread counts and
// eval-batch sizes, JobSpec v1/v2 schema versioning (v1 canonical
// bytes — and so content-hash job IDs — must not change), the shared preset
// name table every front end resolves through, and the warm-artifact ECO
// path of the service (a resubmitted regulate job must reuse the cached
// design, placement, and prepared-flow artifacts).

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "benchgen/generator.hpp"
#include "io/bookshelf.hpp"
#include "par/par.hpp"
#include "place/placer.hpp"
#include "svc/job.hpp"
#include "svc/service.hpp"

namespace mp {
namespace {

class ThreadGuard {
 public:
  explicit ThreadGuard(int threads) : saved_(par::num_threads()) {
    par::set_num_threads(threads);
  }
  ~ThreadGuard() { par::set_num_threads(saved_); }

 private:
  int saved_;
};

place::PresetKnobs fast_knobs() {
  place::PresetKnobs knobs;
  knobs.episodes = 6;
  knobs.gamma = 6;
  knobs.grid = 8;
  knobs.channels = 8;
  knobs.blocks = 1;
  return knobs;
}

benchgen::BenchSpec tiny_bench_spec() {
  benchgen::BenchSpec spec;
  spec.name = "eco_t";
  spec.movable_macros = 8;
  spec.io_pads = 8;
  spec.std_cells = 40;
  spec.nets = 60;
  spec.seed = 5;
  return spec;
}

// A legal incumbent: the analytic baseline is cheap and ends legalized.
netlist::Design incumbent_design() {
  netlist::Design design = benchgen::generate(tiny_bench_spec());
  const place::PlacerSpec spec =
      place::spec_from_preset(place::Preset::kAnalytic, fast_knobs());
  place::run(design, spec);
  return design;
}

// The ECO input: the incumbent placement under a perturbed netlist.
netlist::Design eco_input() {
  const netlist::Design base = incumbent_design();
  benchgen::PerturbSpec delta;
  delta.seed = 11;
  delta.add_nets = 10;
  delta.remove_nets = 4;
  return benchgen::perturb(base, delta);
}

std::vector<geometry::Point> positions(const netlist::Design& design) {
  std::vector<geometry::Point> p;
  p.reserve(design.num_nodes());
  for (std::size_t i = 0; i < design.num_nodes(); ++i) {
    p.push_back(design.node(static_cast<netlist::NodeId>(i)).position);
  }
  return p;
}

bool same_positions(const std::vector<geometry::Point>& a,
                    const std::vector<geometry::Point>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].x != b[i].x || a[i].y != b[i].y) return false;  // bit-identical
  }
  return true;
}

// ---------------------------------------------------------------------------
// Trust-region contracts

TEST(Regulate, HpwlNeverExceedsLegalInputAndStaysLegal) {
  netlist::Design design = eco_input();
  const double input_hpwl = design.total_hpwl();
  const place::PlacerSpec spec =
      place::spec_from_preset(place::Preset::kRegulate, fast_knobs());
  const place::PlaceResult r = place::run(design, spec);
  EXPECT_TRUE(r.finalized);
  EXPECT_DOUBLE_EQ(r.input_hpwl, input_hpwl);
  EXPECT_LE(r.hpwl, input_hpwl * (1.0 + 1e-9));
  EXPECT_DOUBLE_EQ(r.hpwl, design.total_hpwl());
  // Same relative tolerance the flow's own input-legality check uses: the
  // legalizer can leave degenerate slivers at double-rounding scale.
  EXPECT_LE(design.macro_overlap_area(), 1e-9 * design.region().area());
  EXPECT_TRUE(design.all_inside_region());
}

TEST(Regulate, RadiusZeroIsTheIdentityOnALegalInput) {
  netlist::Design design = eco_input();
  const std::vector<geometry::Point> before = positions(design);
  place::PresetKnobs knobs = fast_knobs();
  knobs.regulate_radius = 0;
  const place::PlacerSpec spec =
      place::spec_from_preset(place::Preset::kRegulate, knobs);
  const place::PlaceResult r = place::run(design, spec);
  EXPECT_EQ(r.moved_groups, 0);
  EXPECT_TRUE(same_positions(before, positions(design)));
  EXPECT_DOUBLE_EQ(r.hpwl, r.input_hpwl);
}

TEST(Regulate, AllGroupsFrozenIsTheIdentity) {
  netlist::Design design = eco_input();
  const std::vector<geometry::Point> before = positions(design);
  place::PresetKnobs knobs = fast_knobs();
  for (int i = 0; i < 8; ++i) {
    knobs.regulate_frozen.push_back("macro" + std::to_string(i));
  }
  const place::PlacerSpec spec =
      place::spec_from_preset(place::Preset::kRegulate, knobs);
  const place::PlaceResult r = place::run(design, spec);
  EXPECT_EQ(r.frozen_groups, r.macro_groups);
  EXPECT_EQ(r.moved_groups, 0);
  EXPECT_TRUE(same_positions(before, positions(design)));
}

TEST(Regulate, FrozenMacrosKeepTheirInputPositions) {
  netlist::Design design = eco_input();
  place::PresetKnobs knobs = fast_knobs();
  knobs.regulate_frozen = {"macro0", "macro3"};
  const place::PlacerSpec spec =
      place::spec_from_preset(place::Preset::kRegulate, knobs);
  netlist::Design input = design;  // keep the incumbent for comparison
  const place::PlaceResult r = place::run(design, spec);
  EXPECT_GE(r.frozen_groups, 2);
  for (const char* name : {"macro0", "macro3"}) {
    const auto id = design.find_node(name);
    ASSERT_TRUE(id.has_value());
    const geometry::Point now = design.node(*id).position;
    const geometry::Point was = input.node(*id).position;
    EXPECT_EQ(now.x, was.x) << name;
    EXPECT_EQ(now.y, was.y) << name;
  }
}

TEST(Regulate, MaxMovesCapsTheMovedGroupCount) {
  netlist::Design design = eco_input();
  place::PresetKnobs knobs = fast_knobs();
  knobs.regulate_max_moves = 2;
  const place::PlacerSpec spec =
      place::spec_from_preset(place::Preset::kRegulate, knobs);
  const place::PlaceResult r = place::run(design, spec);
  EXPECT_LE(r.moved_groups, 2);
  // Everything below the tension cut counts as frozen.
  EXPECT_EQ(r.frozen_groups, r.macro_groups - 2);
}

TEST(Regulate, CommittedAnchorsStayInsideTheTrustRegion) {
  netlist::Design design = eco_input();
  place::PresetKnobs knobs = fast_knobs();
  knobs.regulate_radius = 1;
  const place::PlacerSpec spec =
      place::spec_from_preset(place::Preset::kRegulate, knobs);

  // Recompute the incumbent anchors the way the flow derives them (grid
  // cell of each group's area-weighted lower-left corner, clamped so the
  // footprint stays on-chip) from an identical prepare pass.
  netlist::Design probe = design;
  place::FlowContext context =
      place::prepare_regulate_flow(probe, spec.regulate.flow);
  std::vector<grid::CellCoord> incumbent;
  for (const cluster::Group& group : context.clustering.macro_groups) {
    const grid::CellCoord fp =
        context.spec.footprint_cells(group.width, group.height);
    grid::CellCoord c =
        context.spec.cell_of({group.centroid.x - group.width / 2.0,
                              group.centroid.y - group.height / 2.0});
    c.gx = std::max(0, std::min(c.gx, context.spec.dim() - fp.gx));
    c.gy = std::max(0, std::min(c.gy, context.spec.dim() - fp.gy));
    incumbent.push_back(c);
  }

  const place::PlaceResult r = place::run(design, spec);
  ASSERT_EQ(r.mcts_result.anchors.size(), incumbent.size());
  for (std::size_t g = 0; g < incumbent.size(); ++g) {
    EXPECT_LE(std::abs(r.mcts_result.anchors[g].gx - incumbent[g].gx), 1);
    EXPECT_LE(std::abs(r.mcts_result.anchors[g].gy - incumbent[g].gy), 1);
  }
}

// ---------------------------------------------------------------------------
// Determinism

TEST(Regulate, BitIdenticalAcrossThreadCounts) {
  // The self-play trajectory, and so the whole flow, is the same at every
  // pool size, one thread included (docs/PARALLELISM.md).
  const netlist::Design input = eco_input();
  const place::PlacerSpec spec =
      place::spec_from_preset(place::Preset::kRegulate, fast_knobs());
  const int threads[] = {1, 2, 8};
  netlist::Design designs[] = {input, input, input};
  double hpwls[3] = {};
  for (int i = 0; i < 3; ++i) {
    ThreadGuard guard(threads[i]);
    hpwls[i] = place::run(designs[i], spec).hpwl;
  }
  for (int i = 1; i < 3; ++i) {
    EXPECT_EQ(hpwls[0], hpwls[i]) << threads[i] << " threads";
    EXPECT_TRUE(same_positions(positions(designs[0]), positions(designs[i])))
        << threads[i] << " threads";
  }
}

TEST(Regulate, BitIdenticalAcrossEvalBatchSizes) {
  netlist::Design serial = eco_input();
  netlist::Design batched = serial;
  place::PlacerSpec spec =
      place::spec_from_preset(place::Preset::kRegulate, fast_knobs());
  spec.regulate.mcts.eval_batch = 1;
  const place::PlaceResult a = place::run(serial, spec);
  spec.regulate.mcts.eval_batch = 4;
  const place::PlaceResult b = place::run(batched, spec);
  EXPECT_EQ(a.hpwl, b.hpwl);
  EXPECT_EQ(a.moved_groups, b.moved_groups);
  EXPECT_TRUE(same_positions(positions(serial), positions(batched)));
}

// ---------------------------------------------------------------------------
// JobSpec schema versioning

svc::Json v1_job_json() {
  svc::Json spec = svc::Json::object();
  svc::Json synth = svc::Json::object();
  synth["movable_macros"] = svc::Json::number(8);
  synth["std_cells"] = svc::Json::number(40);
  synth["nets"] = svc::Json::number(60);
  synth["seed"] = svc::Json::number(5);
  spec["synthetic"] = synth;
  spec["episodes"] = svc::Json::number(6);
  spec["gamma"] = svc::Json::number(6);
  spec["grid"] = svc::Json::number(8);
  spec["channels"] = svc::Json::number(8);
  spec["blocks"] = svc::Json::number(1);
  return spec;
}

std::string parse_error_of(const svc::Json& json) {
  try {
    svc::parse_job_spec(json);
  } catch (const svc::JobError& e) {
    return e.what();
  }
  return "";
}

TEST(JobSchema, V1CanonicalBytesCarryNoSchemaKey) {
  // The v2 introduction must not move v1 job IDs: a v1 spec round-trips
  // with schema-less canonical bytes, so its content hash is byte-stable.
  const svc::JobSpec spec = svc::parse_job_spec(v1_job_json());
  EXPECT_EQ(spec.schema, 1);
  const std::string canonical = svc::job_canonical_string(spec);
  EXPECT_EQ(canonical.find("schema"), std::string::npos);
  EXPECT_EQ(canonical.find("regulate"), std::string::npos);
  EXPECT_EQ(canonical.find("initial_placement"), std::string::npos);
  // An explicit `"schema": 1` parses to the same spec and the same ID.
  svc::Json tagged = v1_job_json();
  tagged["schema"] = svc::Json::number(1);
  const svc::JobSpec same = svc::parse_job_spec(tagged);
  EXPECT_EQ(svc::job_canonical_string(same), canonical);
  EXPECT_EQ(svc::make_job_id(same, 1), svc::make_job_id(spec, 1));
}

TEST(JobSchema, V2RoundTripsWithRegulateBlock) {
  svc::Json json = v1_job_json();
  json["schema"] = svc::Json::number(2);
  json["preset"] = svc::Json::string("regulate");
  json["initial_placement"] = svc::Json::string("/tmp/incumbent.pl");
  svc::Json reg = svc::Json::object();
  reg["radius"] = svc::Json::number(3);
  reg["max_moves"] = svc::Json::number(5);
  svc::Json frozen = svc::Json::array();
  frozen.push_back(svc::Json::string("macro1"));
  frozen.push_back(svc::Json::string("macro4"));
  reg["frozen"] = frozen;
  json["regulate"] = reg;

  const svc::JobSpec spec = svc::parse_job_spec(json);
  EXPECT_EQ(spec.schema, 2);
  EXPECT_EQ(spec.preset, svc::FlowPreset::kRegulate);
  EXPECT_EQ(spec.initial_placement_path, "/tmp/incumbent.pl");
  EXPECT_EQ(spec.regulate_radius, 3);
  EXPECT_EQ(spec.regulate_max_moves, 5);
  ASSERT_EQ(spec.regulate_frozen.size(), 2u);
  EXPECT_EQ(spec.regulate_frozen[0], "macro1");
  EXPECT_EQ(spec.regulate_frozen[1], "macro4");

  const svc::JobSpec again = svc::parse_job_spec(svc::job_spec_to_json(spec));
  EXPECT_EQ(svc::job_canonical_string(again), svc::job_canonical_string(spec));
  EXPECT_EQ(again.schema, 2);
}

TEST(JobSchema, V2FieldsUnderSchema1AreRejectedByName) {
  svc::Json json = v1_job_json();
  json["initial_placement"] = svc::Json::string("/tmp/incumbent.pl");
  const std::string error = parse_error_of(json);
  EXPECT_NE(error.find("initial_placement"), std::string::npos) << error;
  EXPECT_NE(error.find("schema"), std::string::npos) << error;
  EXPECT_NE(error.find("1, 2"), std::string::npos) << error;
}

TEST(JobSchema, UnsupportedSchemaVersionIsRejected) {
  svc::Json json = v1_job_json();
  json["schema"] = svc::Json::number(3);
  const std::string error = parse_error_of(json);
  EXPECT_NE(error.find("schema"), std::string::npos) << error;
  EXPECT_NE(error.find("1, 2"), std::string::npos) << error;
}

TEST(JobSchema, RegulatePresetRequiresSchema2AndAPlacement) {
  svc::Json json = v1_job_json();
  json["preset"] = svc::Json::string("regulate");
  EXPECT_NE(parse_error_of(json).find("schema"), std::string::npos);
  json["schema"] = svc::Json::number(2);
  EXPECT_NE(parse_error_of(json).find("initial_placement"),
            std::string::npos);
}

TEST(JobSchema, UnknownRegulateFieldIsRejectedByQualifiedName) {
  svc::Json json = v1_job_json();
  json["schema"] = svc::Json::number(2);
  svc::Json reg = svc::Json::object();
  reg["radius_cells"] = svc::Json::number(2);
  json["regulate"] = reg;
  EXPECT_NE(parse_error_of(json).find("regulate.radius_cells"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// The shared preset name table

TEST(PresetTable, EveryFrontEndSpellingResolvesThroughTheTable) {
  std::set<place::Preset> canonical_seen;
  std::set<std::string> names_seen;
  for (const place::PresetAlias& alias : place::preset_aliases()) {
    EXPECT_TRUE(names_seen.insert(alias.name).second)
        << "duplicate spelling " << alias.name;
    place::Preset parsed;
    ASSERT_TRUE(place::parse_preset(alias.name, parsed)) << alias.name;
    EXPECT_EQ(parsed, alias.preset) << alias.name;
    if (alias.canonical) {
      EXPECT_TRUE(canonical_seen.insert(alias.preset).second)
          << "two canonical spellings for " << alias.name;
      EXPECT_STREQ(place::preset_name(alias.preset), alias.name);
    }
  }
  // Every preset has exactly one canonical spelling in the table.
  EXPECT_EQ(canonical_seen.size(), 6u);
  // The regulate preset answers to its CLI alias.
  place::Preset eco;
  ASSERT_TRUE(place::parse_preset("eco", eco));
  EXPECT_EQ(eco, place::Preset::kRegulate);
}

// ---------------------------------------------------------------------------
// Warm-artifact ECO path of the service

class TempPl {
 public:
  explicit TempPl(const netlist::Design& design)
      : path_("/tmp/mp_test_regulate_" + std::to_string(::getpid()) + ".pl") {
    std::ofstream os(path_);
    io::write_pl(design, os);
  }
  ~TempPl() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

svc::JobSpec eco_job_spec(const std::string& placement_path) {
  svc::JobSpec spec;
  spec.schema = 2;
  spec.use_synthetic = true;
  spec.synthetic = tiny_bench_spec();
  spec.preset = svc::FlowPreset::kRegulate;
  spec.initial_placement_path = placement_path;
  spec.episodes = 6;
  spec.gamma = 6;
  spec.grid = 8;
  spec.channels = 8;
  spec.blocks = 1;
  return spec;
}

TEST(LocalServiceEco, WarmEcoResubmissionReusesEveryCachedArtifact) {
  // The incumbent: the same synthetic design the service will regenerate,
  // placed legally and written as a standalone .pl the job references.
  const TempPl incumbent(incumbent_design());

  svc::ServiceOptions options;
  options.stream_progress = false;
  svc::LocalService service(options);
  const svc::JobSpec spec = eco_job_spec(incumbent.path());

  const std::string cold = service.submit(spec).id;
  ASSERT_TRUE(service.wait(cold, 600.0));
  const std::string warm = service.submit(spec).id;
  ASSERT_TRUE(service.wait(warm, 600.0));

  const auto a = service.status(cold);
  const auto b = service.status(warm);
  ASSERT_TRUE(a.has_value() && b.has_value());
  ASSERT_EQ(a->state, svc::JobState::kDone) << a->error;
  ASSERT_EQ(b->state, svc::JobState::kDone) << b->error;
  // Warm == cold, bit for bit, and the regulate contract held.
  EXPECT_EQ(a->outcome.placement_hash, b->outcome.placement_hash);
  EXPECT_DOUBLE_EQ(a->outcome.hpwl, b->outcome.hpwl);
  EXPECT_LE(a->outcome.hpwl,
            a->outcome.input_hpwl * (1.0 + 1e-9));

  // The second job loaded nothing: design, incumbent placement, and the
  // prepared regulate flow all came out of the cache.
  const svc::CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.design_misses, 1);
  EXPECT_GE(stats.design_hits, 1);
  EXPECT_EQ(stats.placement_misses, 1);
  EXPECT_GE(stats.placement_hits, 1);
  EXPECT_EQ(stats.prepared_misses, 1);
  EXPECT_GE(stats.prepared_hits, 1);
}

TEST(LocalServiceEco, JobJsonCarriesEcoOutcomeFields) {
  const TempPl incumbent(incumbent_design());
  svc::ServiceOptions options;
  options.stream_progress = false;
  svc::LocalService service(options);
  const std::string id = service.submit(eco_job_spec(incumbent.path())).id;
  ASSERT_TRUE(service.wait(id, 600.0));
  const auto snap = service.status(id);
  ASSERT_TRUE(snap.has_value());
  ASSERT_EQ(snap->state, svc::JobState::kDone) << snap->error;
  const svc::Json job = svc::LocalService::job_to_json(*snap);
  ASSERT_TRUE(job.find("outcome") != nullptr) << job.dump();
  const svc::Json& outcome = *job.find("outcome");
  EXPECT_TRUE(outcome.has("input_hpwl")) << outcome.dump();
  EXPECT_TRUE(outcome.has("moved_groups")) << outcome.dump();
  EXPECT_GT(outcome.find("input_hpwl")->as_number(), 0.0);
}

}  // namespace
}  // namespace mp
