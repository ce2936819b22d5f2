// mpbench: runs one workload of the end-to-end benchmark and prints its
// result as the last line of standard output (mpbench/README.md).
// run.py builds this binary and starts it inside a scratch directory under
// the build tree, which holds every file a run writes.
//
//   mpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--spans-out <file>]
//
// --trace 0 measures the end-to-end metrics with telemetry off; --trace 1 is
// the separate traced run that reports the per-layer split.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_lib.hpp"
#include "benchgen/generator.hpp"
#include "io/bookshelf.hpp"
#include "nn/functional.hpp"
#include "obs/obs.hpp"
#include "par/par.hpp"
#include "place/placer.hpp"
#include "rl/agent.hpp"
#include "rl/env.hpp"
#include "svc/client.hpp"
#include "svc/json.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace {

using mp::svc::Json;
using mpbench::CheckLedger;
using mpbench::Metric;

// Pool threads of every workload: the flows run on two, the service splits
// two among its two workers (one each).
constexpr int kThreads = 2;
// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupRepeats = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string spans_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = std::stoi(value);
    } else if (flag == "--spans-out") {
      a.spans_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  const auto& names = mpbench::workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    throw std::invalid_argument("unknown --workload '" + a.workload + "'");
  }
  if (!have_seed || !(a.seconds > 0.0) || (a.trace != 0 && a.trace != 1)) {
    throw std::invalid_argument(
        "need --seed <n> --seconds <s> --trace <0|1>");
  }
  return a;
}

double peak_rss_mb() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- The benchmark's own spans ---------------------------------------------
// Name, start, end, causing span and request (ECO job) of every public call
// the benchmark makes in a traced run; kept in memory and written as JSONL
// when the run ends.

// Spans the calling thread has open, innermost last.
thread_local std::vector<int> t_open_spans;

class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}

  /// Opens a span.  Its parent is the innermost span this thread has open,
  /// else `parent` (a span of the thread that handed over the work).  Spans
  /// of one ECO job share `request`.
  int begin(const std::string& name, int request = -1, int parent = -1) {
    if (!on_) return -1;
    if (!t_open_spans.empty()) parent = t_open_spans.back();
    std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back({name, parent, request, clock_.seconds(), -1.0});
    const int id = static_cast<int>(records_.size()) - 1;
    t_open_spans.push_back(id);
    return id;
  }
  void end(int id) {
    if (id < 0) return;
    t_open_spans.pop_back();
    std::lock_guard<std::mutex> lock(mutex_);
    records_[static_cast<std::size_t>(id)].end_s = clock_.seconds();
  }
  /// Durations in seconds of every closed span called `name`.
  std::vector<double> durations(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const Record& r : records_) {
      if (r.name == name && r.end_s >= 0.0) out.push_back(r.end_s - r.start_s);
    }
    return out;
  }
  void write_jsonl(const std::string& path) const {
    if (path.empty()) return;
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      Json j = Json::object();
      j["id"] = Json::number(static_cast<long long>(i));
      j["name"] = Json::string(r.name);
      j["parent"] = Json::number(r.parent);
      j["request"] = Json::number(r.request);
      j["start_s"] = Json::number(r.start_s);
      j["end_s"] = Json::number(r.end_s);
      out << j.dump() << '\n';
    }
  }

 private:
  struct Record {
    std::string name;
    int parent;
    int request;
    double start_s;
    double end_s;
  };
  const bool on_;
  const mp::util::Timer clock_;
  mutable std::mutex mutex_;
  std::vector<Record> records_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name, int request = -1,
             int parent = -1)
      : log_(log), id_(log.begin(name, request, parent)) {}
  ~ScopedSpan() { log_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

double median_ms(const std::vector<double>& seconds) {
  return seconds.empty() ? 0.0 : 1e3 * mpbench::median(seconds);
}

// --- Per-layer totals from the program's own telemetry ---------------------

// Self time of every span name, summed over all its paths, plus counters,
// accumulated over `operations` placements or jobs.
struct LayerTotals {
  std::map<std::string, double> self_s;
  std::map<std::string, double> counters;
  int operations = 0;

  void add_span(const mp::obs::SpanSnapshot& s) {
    self_s[s.name] += s.self_seconds;
    for (const auto& child : s.children) add_span(child);
  }
  void add(const mp::obs::RegistrySnapshot& snap) {
    for (const auto& s : snap.spans) add_span(s);
    for (const auto& [name, v] : snap.counters) {
      counters[name] += static_cast<double>(v);
    }
    ++operations;
  }
  void add_report_span(const Json& s) {
    self_s[s.find("name")->as_string()] += s.find("self_s")->as_number();
    for (const Json& child : s.find("children")->items()) {
      add_report_span(child);
    }
  }
  /// One JSONL run line of a service job (MP_OBS_OUT).
  void add_report(const Json& line) {
    for (const Json& s : line.find("spans")->items()) add_report_span(s);
    for (const auto& [name, v] : line.find("counters")->members()) {
      counters[name] += v.as_number();
    }
    ++operations;
  }
  double self(std::initializer_list<const char*> names) const {
    double sum = 0.0;
    for (const char* n : names) {
      const auto it = self_s.find(n);
      if (it != self_s.end()) sum += it->second;
    }
    return operations > 0 ? sum / operations : 0.0;
  }
  double count(const char* name) const {
    const auto it = counters.find(name);
    return it == counters.end() || operations == 0 ? 0.0
                                                   : it->second / operations;
  }
  /// Span names by descending self time.
  std::vector<std::pair<std::string, double>> ranked() const {
    std::vector<std::pair<std::string, double>> v(self_s.begin(),
                                                  self_s.end());
    std::sort(v.begin(), v.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    return v;
  }
};

// Figures a traced run measures outside the program's telemetry.
struct Probes {
  double forward_ms = 0.0;
  double train_step_ms = 0.0;
  double read_bookshelf_ms = 0.0;
  double generate_s = 0.0;
  double overhead_frac = 0.0;
};

// The service-path figures of an eco_service run (zero for the flows).
struct ServiceFigures {
  double submit_ms = 0.0;
  double queue_wait_p50_s = 0.0;
  double queue_wait_p90_s = 0.0;
  double run_p50_s = 0.0;
  double run_p90_s = 0.0;
  double cache_hit_ratio = 0.0;
  double queue_depth_max = 0.0;
  double jobs_rejected = 0.0;
  double late_max_s = 0.0;
};

std::vector<Metric> layer_metrics(const LayerTotals& t, const Probes& p,
                                  const ServiceFigures& s) {
  const double rounds = t.count("flow.refine_rounds");
  return {
      {"rl.train_s", t.self({"rl.train"}), "s"},
      {"rl.rollout_s", t.self({"rl.rollout"}), "s"},
      {"rl.update_s", t.self({"rl.update"}), "s"},
      {"rl.episodes", t.count("rl.episodes"), "count"},
      {"rl.env.steps", t.count("rl.env.steps"), "count"},
      {"rl.optimizer_steps", t.count("rl.optimizer_steps"), "count"},
      {"nn.forward_ms", p.forward_ms, "ms"},
      {"nn.train_step_ms", p.train_step_ms, "ms"},
      {"mcts.search_s", t.self({"mcts.search"}), "s"},
      {"mcts.simulations", t.count("mcts.simulations"), "count"},
      {"mcts.nn_evaluations", t.count("mcts.nn_evaluations"), "count"},
      {"mcts.terminal_evaluations", t.count("mcts.terminal_evaluations"),
       "count"},
      {"flow.prepare_s", t.self({"flow.prepare", "flow.prepare_regulate"}),
       "s"},
      {"flow.finalize_s", t.self({"flow.finalize"}), "s"},
      {"flow.legalize_s",
       t.self({"flow.legalize", "regulate.legalize", "regulate.input_legalize"}),
       "s"},
      {"flow.refine_accept_ratio",
       rounds > 0.0 ? t.count("flow.refine_rounds_accepted") / rounds : 0.0,
       "ratio"},
      {"regulate.rollbacks", t.count("regulate.rollbacks"), "count"},
      {"gp.global_place_s", t.self({"gp.global_place"}), "s"},
      {"gp.invocations", t.count("gp.invocations"), "count"},
      {"gp.spreading_passes", t.count("gp.spreading_passes"), "count"},
      {"qp.solves", t.count("qp.solves"), "count"},
      {"qp.cg_iterations", t.count("qp.cg_iterations"), "count"},
      {"flow.clustering_s", t.self({"flow.clustering"}), "s"},
      {"svc.submit_ms", s.submit_ms, "ms"},
      {"svc.queue_wait_p50_s", s.queue_wait_p50_s, "s"},
      {"svc.queue_wait_p90_s", s.queue_wait_p90_s, "s"},
      {"svc.run_p50_s", s.run_p50_s, "s"},
      {"svc.run_p90_s", s.run_p90_s, "s"},
      {"svc.cache_hit_ratio", s.cache_hit_ratio, "ratio"},
      {"svc.queue_depth_max", s.queue_depth_max, "count"},
      {"svc.jobs_rejected", s.jobs_rejected, "count"},
      {"io.read_bookshelf_ms", p.read_bookshelf_ms, "ms"},
      {"benchgen.generate_s", p.generate_s, "s"},
      {"obs.overhead_frac", p.overhead_frac, "ratio"},
      {"load.late_max_s", s.late_max_s, "s"},
  };
}

void print_shape(const std::string& workload, const LayerTotals& t) {
  std::printf("top self times per operation (%d operations):\n", t.operations);
  const auto ranked = t.ranked();
  for (std::size_t i = 0; i < ranked.size() && i < 6; ++i) {
    std::printf("  %-28s %10.4f s\n", ranked[i].first.c_str(),
                ranked[i].second / std::max(1, t.operations));
  }
  const std::string top = ranked.empty() ? "" : ranked.front().first;
  if (workload == "ibm01_scratch") {
    std::printf("shape: rl.update has the largest self time: %s\n",
                top == "rl.update" ? "yes" : "NO");
  } else if (workload == "cir1_large") {
    std::printf("shape: gp.global_place has the largest self time: %s\n",
                top == "gp.global_place" ? "yes" : "NO");
  } else {
    std::printf("shape: no job records a gp.global_place span: %s\n",
                t.self_s.count("gp.global_place") == 0 ? "yes" : "NO");
  }
}

// --- Output checks ----------------------------------------------------------

bool positions_finite(const mp::netlist::Design& d) {
  return std::all_of(d.nodes().begin(), d.nodes().end(), [](const auto& n) {
    return std::isfinite(n.position.x) && std::isfinite(n.position.y);
  });
}

void check_placement(CheckLedger& ledger, const mp::netlist::Design& d,
                     const mp::place::PlaceResult& r) {
  ledger.expect(r.finalized && !r.cancelled, "finalized");
  ledger.expect(d.macro_overlap_area() == 0.0, "no_macro_overlap");
  ledger.expect(d.all_inside_region(), "inside_region");
  ledger.expect(positions_finite(d), "finite_positions");
  ledger.expect(r.hpwl == d.total_hpwl(), "hpwl_equals_recomputed");
}

// One placement: copy the generated design, run, check.  Returns wall time.
double timed_place(const mp::netlist::Design& input,
                   const mp::place::PlacerSpec& spec, CheckLedger& ledger,
                   const std::string& what, double* hpwl) {
  mp::netlist::Design d = input;
  ledger.begin(what);
  mp::util::Timer timer;
  const mp::place::PlaceResult r = mp::place::run(d, spec);
  const double seconds = timer.seconds();
  check_placement(ledger, d, r);
  *hpwl = r.hpwl;
  return seconds;
}

// nn probe: AgentNetwork::forward (inference) and forward+backward (one
// training step) on the workload's agent config and the env's first state.
void probe_nn(const mp::place::FlowContext& ctx,
              const mp::rl::AgentConfig& agent_config, SpanLog& log,
              Probes& p) {
  mp::rl::AgentNetwork agent(agent_config);
  mp::rl::PlacementEnv env(ctx.coarse, ctx.clustering, ctx.spec);
  env.reset();
  const std::vector<double> sp = env.placement_state();
  const std::vector<double> av = env.availability();
  const int steps = env.num_steps();
  constexpr int kReps = 15;
  agent.forward(sp, av, 0, steps, false);  // warm caches and allocations
  for (int i = 0; i < kReps; ++i) {
    ScopedSpan span(log, "nn.forward");
    agent.forward(sp, av, 0, steps, false);
  }
  for (int i = 0; i < kReps; ++i) {
    ScopedSpan span(log, "nn.train_step");
    const mp::rl::AgentOutput out = agent.forward(sp, av, 0, steps, true);
    const float* probs = out.probs.data();
    const int action = static_cast<int>(
        std::max_element(probs, probs + out.probs.size()) - probs);
    agent.backward(mp::nn::policy_gradient(out.probs, action, 0.1f), 0.1f);
  }
  p.forward_ms = median_ms(log.durations("nn.forward"));
  p.train_step_ms = median_ms(log.durations("nn.train_step"));
}

// io probe: reading one Bookshelf design, median of a few reads.  Returns
// the design read.
mp::netlist::Design probe_read_bookshelf(const std::string& prefix,
                                         SpanLog& log, Probes& p) {
  mp::netlist::Design d;
  for (int i = 0; i < 5; ++i) {
    ScopedSpan span(log, "io.read_bookshelf");
    d = mp::io::read_bookshelf(prefix);
  }
  p.read_bookshelf_ms = median_ms(log.durations("io.read_bookshelf"));
  return d;
}

// --- Flow workloads (ibm01_scratch, cir1_large) -----------------------------

struct Outcome {
  std::vector<Metric> metrics;
  CheckLedger ledger;
};

Outcome run_flow(const Args& args, SpanLog& log) {
  const mpbench::FlowWorkload w = mpbench::flow_workload(args.workload, args.seed);
  const mp::place::PlacerSpec spec =
      mp::place::spec_from_preset(mp::place::Preset::kMcts, w.knobs);
  Outcome out;

  // Set-up, repeated: generate the design, write it as Bookshelf files and
  // read it back, as a CLI caller (place_bookshelf) loads its input.
  std::vector<double> setup;
  std::vector<double> generate;
  mp::netlist::Design design;
  for (int i = 0; i < kSetupRepeats; ++i) {
    mp::util::Timer t;
    mp::netlist::Design generated;
    {
      ScopedSpan span(log, "benchgen.generate");
      mp::util::Timer g;
      generated = mp::benchgen::generate(w.design);
      generate.push_back(g.seconds());
    }
    {
      ScopedSpan span(log, "io.write_bookshelf");
      mp::io::write_bookshelf(generated, "design");
    }
    {
      ScopedSpan span(log, "io.read_bookshelf");
      design = mp::io::read_bookshelf("design");
    }
    setup.push_back(t.seconds());
  }
  const double input_hpwl = design.total_hpwl();
  std::printf("design %s: %zu nodes, %zu nets, %zu movable macros\n",
              design.name().c_str(), design.num_nodes(), design.num_nets(),
              design.movable_macros().size());

  std::vector<double> place_s;
  std::vector<double> hpwls;
  if (args.trace == 0) {
    mp::util::Timer run_clock;
    do {
      double hpwl = 0.0;
      place_s.push_back(timed_place(
          design, spec, out.ledger,
          "placement " + std::to_string(place_s.size() + 1), &hpwl));
      hpwls.push_back(hpwl);
      out.ledger.expect(hpwl == hpwls.front(), "hpwl_identical_across_run");
    } while (run_clock.seconds() + mpbench::median(place_s) <= args.seconds);

    double sum = 0.0;
    for (const double s : place_s) sum += s;
    const auto tail = mpbench::tail_quantile(static_cast<long long>(place_s.size()));
    out.metrics = {
        {"place_s", mpbench::median(place_s), "s"},
        {"hpwl", hpwls.front(), "HPWL"},
        // One caller placing back to back: a placement's latency is its
        // wall time.  Too few samples support a tail percentile, so p90
        // reports the slowest placement.
        {"latency_p50_s", mpbench::median(place_s), "s"},
        {"latency_p90_s",
         tail ? mpbench::quantile(place_s, *tail)
              : *std::max_element(place_s.begin(), place_s.end()),
         "s"},
        {"capacity_jobs_per_s", static_cast<double>(place_s.size()) / sum,
         "jobs/s"},
        {"eco_hpwl_ratio", hpwls.front() / input_hpwl, "ratio"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
        {"setup_s", mpbench::median(setup), "s"},
    };
  } else {
    // A traced placement between two untraced ones of the same design: the
    // per-layer split comes from the traced one, and comparing it with the
    // mean of its neighbours cancels a steady drift in machine speed.
    double hpwl_plain = 0.0;
    double hpwl_traced = 0.0;
    double plain_s = 0.0;
    {
      ScopedSpan span(log, "place.run");
      plain_s = timed_place(design, spec, out.ledger, "untraced placement 1",
                            &hpwl_plain);
    }
    mp::obs::set_enabled(true);
    double traced_s = 0.0;
    {
      ScopedSpan span(log, "place.run");
      traced_s = timed_place(design, spec, out.ledger, "traced placement",
                             &hpwl_traced);
    }
    // place::run zeroes the registry on entry: snapshot right after it.
    LayerTotals totals;
    totals.add(mp::obs::Registry::global().snapshot());
    mp::obs::set_enabled(false);
    out.ledger.expect(hpwl_traced == hpwl_plain, "hpwl_identical_traced");
    {
      ScopedSpan span(log, "place.run");
      plain_s += timed_place(design, spec, out.ledger, "untraced placement 2",
                             &hpwl_plain);
    }
    out.ledger.expect(hpwl_plain == hpwl_traced, "hpwl_identical_traced");

    Probes probes;
    probes.generate_s = mpbench::median(generate);
    probes.overhead_frac = traced_s / (plain_s / 2.0) - 1.0;
    {
      ScopedSpan span(log, "place.prepare_flow");
      mp::netlist::Design copy = design;
      const mp::place::FlowContext ctx =
          mp::place::prepare_flow(copy, spec.mcts_rl.flow);
      mp::rl::AgentConfig agent = spec.mcts_rl.agent;
      agent.grid_dim = spec.mcts_rl.flow.grid_dim;
      probe_nn(ctx, agent, log, probes);
    }
    probes.read_bookshelf_ms = median_ms(log.durations("io.read_bookshelf"));
    print_shape(args.workload, totals);
    out.metrics = layer_metrics(totals, probes, ServiceFigures{});
  }
  return out;
}

// --- eco_service -------------------------------------------------------------

// What set-up leaves on disk: the incumbent placement and the changed
// netlists, as Bookshelf files in the working directory.
struct EcoInputs {
  std::vector<std::string> netlists;  ///< Bookshelf prefixes
  std::string incumbent_pl;
  std::uint64_t incumbent_hash = 0;
  double generate_s = 0.0;
};

EcoInputs write_eco_inputs(const mpbench::EcoWorkload& w, int netlists,
                           CheckLedger& ledger, SpanLog& log) {
  EcoInputs in;
  mp::netlist::Design base;
  {
    ScopedSpan span(log, "benchgen.generate");
    mp::util::Timer t;
    base = mp::benchgen::generate(w.base);
    in.generate_s = t.seconds();
  }
  {
    ScopedSpan span(log, "place.run");
    ledger.begin("incumbent placement");
    const mp::place::PlaceResult r = mp::place::run(
        base, mp::place::spec_from_preset(mp::place::Preset::kMcts,
                                          w.incumbent));
    check_placement(ledger, base, r);
  }
  in.incumbent_hash = mp::svc::placement_fingerprint(base);
  mp::io::write_bookshelf(base, "base");
  in.incumbent_pl = "base.pl";
  for (int k = 0; k < netlists; ++k) {
    mp::benchgen::PerturbSpec delta;
    delta.seed =
        mpbench::derive_seed(w.delta_seed, static_cast<std::uint64_t>(k));
    delta.add_nets = static_cast<int>(base.num_nets()) * w.add_nets_pct / 100;
    delta.remove_nets =
        static_cast<int>(base.num_nets()) * w.remove_nets_pct / 100;
    const mp::netlist::Design changed = mp::benchgen::perturb(base, delta);
    in.netlists.push_back("eco_" + std::to_string(k));
    mp::io::write_bookshelf(changed, in.netlists.back());
  }
  return in;
}

Json eco_job_spec(const mpbench::EcoWorkload& w, const EcoInputs& in,
                  int netlist) {
  Json spec = Json::object();
  spec["schema"] = Json::number(2);
  spec["preset"] = Json::string("regulate");
  spec["design"] = Json::string(in.netlists[static_cast<std::size_t>(netlist)]);
  spec["initial_placement"] = Json::string(in.incumbent_pl);
  spec["episodes"] = Json::number(w.job.episodes);
  spec["gamma"] = Json::number(w.job.gamma);
  spec["grid"] = Json::number(w.job.grid);
  spec["channels"] = Json::number(w.job.channels);
  spec["blocks"] = Json::number(w.job.blocks);
  spec["threads"] = Json::number(1);
  return spec;
}

// Runs Server::serve on its own thread.  stop(), or leaving the scope on any
// path, requests shutdown (the service drains its queue) and joins.
class ServeThread {
 public:
  explicit ServeThread(mp::svc::Server& server)
      : server_(server), thread_([this] { server_.serve(); }) {}
  ~ServeThread() { stop(); }
  ServeThread(const ServeThread&) = delete;
  ServeThread& operator=(const ServeThread&) = delete;

  void stop() {
    if (!thread_.joinable()) return;
    server_.request_shutdown();
    thread_.join();
  }

 private:
  mp::svc::Server& server_;
  std::thread thread_;
};

// One submitted job as the clients saw it.
struct JobRecord {
  int netlist = 0;
  double sched_s = 0.0;  ///< due time on the run clock
  double sent_s = 0.0;   ///< when the submit request went out
  double acked_s = 0.0;  ///< when the submit reply arrived
  bool accepted = false;
  std::string id;
  std::string error;
  // From the result reply.
  bool have_result = false;
  std::string state;
  double queue_s = 0.0;
  double run_s = 0.0;
  double hpwl = 0.0;
  double input_hpwl = 0.0;
  bool finalized = false;
  std::string placement_hash;

  double completed_s() const { return acked_s + queue_s + run_s; }
  double latency_s() const { return completed_s() - sched_s; }
};

// The workload's two client connections, open for the whole run.
struct Clients {
  mp::svc::Client submit;   ///< sends jobs (and the one stats request)
  mp::svc::Client results;  ///< collects results in submission order
};

// Sends `schedule` open-loop on one connection while the other collects
// results in submission order.  Arrival offsets are relative to `start_s` on
// `clock`; job i is request `first_request + i` in the span log.
std::vector<JobRecord> run_jobs(const std::vector<mpbench::Arrival>& schedule,
                                const std::vector<Json>& specs,
                                Clients& clients, const mp::util::Timer& clock,
                                double start_s, int first_request,
                                SpanLog& log) {
  const ScopedSpan phase(log, "eco.jobs");
  std::vector<JobRecord> jobs(schedule.size());
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t submitted = 0;  // guarded by mutex

  std::thread collector([&] {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return submitted > i; });
      }
      JobRecord& job = jobs[i];
      if (!job.accepted) continue;
      try {
        ScopedSpan span(log, "svc.result", first_request + static_cast<int>(i),
                        phase.id());
        const Json reply = clients.results.result(job.id, 60.0);
        const Json* j = reply.find("job");
        if (j == nullptr) {
          job.error = "result: no job in reply";
          continue;
        }
        job.have_result = true;
        job.state = j->find("state")->as_string();
        job.queue_s = j->find("queue_s")->as_number();
        job.run_s = j->find("run_s")->as_number();
        if (const Json* o = j->find("outcome")) {
          job.hpwl = o->find("hpwl")->as_number();
          job.input_hpwl = o->find("input_hpwl")->as_number();
          job.finalized = o->find("finalized")->as_bool();
          job.placement_hash = o->find("placement_hash")->as_string();
        }
      } catch (const std::exception& e) {
        job.error = std::string("result: ") + e.what();
      }
    }
  });

  for (std::size_t i = 0; i < schedule.size(); ++i) {
    JobRecord& job = jobs[i];
    job.netlist = schedule[i].netlist;
    job.sched_s = start_s + schedule[i].at_s;
    const double wait = job.sched_s - clock.seconds();
    if (wait > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    }
    job.sent_s = clock.seconds();
    try {
      ScopedSpan span(log, "svc.submit", first_request + static_cast<int>(i));
      const Json reply =
          clients.submit.submit(specs[static_cast<std::size_t>(job.netlist)]);
      job.acked_s = clock.seconds();
      const Json* ok = reply.find("ok");
      job.accepted = ok != nullptr && ok->as_bool();
      if (job.accepted) {
        job.id = reply.find("id")->as_string();
      } else {
        const Json* e = reply.find("error");
        job.error = "refused: " + (e != nullptr ? e->as_string() : "?");
      }
    } catch (const std::exception& e) {
      job.error = std::string("submit: ") + e.what();
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      submitted = i + 1;
    }
    cv.notify_all();
  }
  collector.join();
  return jobs;
}

// Checks every job and the warm ≡ cold contract between the two sends of a
// netlist; returns the jobs that passed, in order.
std::vector<const JobRecord*> check_jobs(const std::vector<JobRecord>& jobs,
                                         const std::string& phase,
                                         CheckLedger& ledger) {
  std::vector<const JobRecord*> good;
  std::map<int, std::string> first_hash;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobRecord& j = jobs[i];
    ledger.begin(phase + " job " + std::to_string(i) + " (netlist " +
                 std::to_string(j.netlist) + ")");
    if (!j.error.empty()) {
      ledger.expect(false, j.error);
      continue;
    }
    const long long failed_before = ledger.failed();
    ledger.expect(j.have_result && j.state == "done", "state_done");
    ledger.expect(j.finalized, "finalized");
    ledger.expect(std::isfinite(j.hpwl) && j.hpwl > 0.0, "hpwl_finite");
    ledger.expect(j.hpwl <= j.input_hpwl, "hpwl_not_above_input");
    const auto [it, first] = first_hash.emplace(j.netlist, j.placement_hash);
    if (!first) {
      ledger.expect(it->second == j.placement_hash, "warm_equals_cold_hash");
    }
    if (ledger.failed() == failed_before) good.push_back(&j);
  }
  return good;
}

double geomean(const std::vector<double>& v) {
  double log_sum = 0.0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

// Largest number of jobs waiting in the queue at once: each job waits from
// its admission (taken as the submit reply) for queue_s seconds.
double max_queue_depth(const std::vector<JobRecord>& jobs) {
  std::vector<std::pair<double, int>> events;
  for (const JobRecord& j : jobs) {
    if (!j.have_result) continue;
    events.emplace_back(j.acked_s, +1);
    events.emplace_back(j.acked_s + j.queue_s, -1);
  }
  std::sort(events.begin(), events.end());
  int depth = 0;
  int peak = 0;
  for (const auto& [t, d] : events) {
    depth += d;
    peak = std::max(peak, depth);
  }
  return peak;
}

Outcome run_eco(const Args& args, SpanLog& log) {
  const mpbench::EcoWorkload w = mpbench::eco_workload(args.seed);
  Outcome out;
  const int block = 2 * w.repeat_gap;
  // The stream fills about 85% of the run; the bursts take the rest.
  const int stream_jobs = std::max(
      w.min_stream_jobs,
      static_cast<int>(w.rate_per_s * 0.85 * args.seconds) / block * block);
  const std::vector<mpbench::Arrival> stream =
      mpbench::eco_schedule(args.seed, stream_jobs, w.rate_per_s, w.repeat_gap);
  // Each burst places netlists of its own, so its hit pattern matches the
  // stream's: every netlist twice, repeat_gap jobs apart.
  std::vector<std::vector<mpbench::Arrival>> bursts;
  for (int b = 0; b < w.bursts; ++b) {
    bursts.push_back(
        mpbench::eco_schedule(args.seed, w.burst_jobs, 1.0, w.repeat_gap));
    for (mpbench::Arrival& a : bursts.back()) {
      a.at_s = 0.0;
      a.netlist += (stream_jobs + b * w.burst_jobs) / 2;
    }
  }
  const int netlists = (stream_jobs + w.bursts * w.burst_jobs) / 2;

  // Set-up, repeated: inputs, incumbent, files, service start.
  const std::string endpoint = "unix:svc.sock";
  std::vector<double> setup;
  std::vector<double> generate;
  EcoInputs in;
  std::unique_ptr<mp::svc::LocalService> service;
  std::unique_ptr<mp::svc::Server> server;
  for (int i = 0; i < kSetupRepeats; ++i) {
    server.reset();
    service.reset();
    mp::util::Timer t;
    EcoInputs again = write_eco_inputs(w, netlists, out.ledger, log);
    mp::svc::ServiceOptions opts;
    opts.workers = w.workers;
    service = std::make_unique<mp::svc::LocalService>(opts);
    server = std::make_unique<mp::svc::Server>(*service, endpoint);
    std::string err;
    if (!server->start(&err)) throw std::runtime_error("server: " + err);
    setup.push_back(t.seconds());
    generate.push_back(again.generate_s);
    if (i > 0) {
      out.ledger.expect(again.incumbent_hash == in.incumbent_hash,
                        "incumbent_identical_across_setups");
    }
    in = std::move(again);
  }
  ServeThread serving(*server);
  Clients clients{mp::svc::Client(endpoint), mp::svc::Client(endpoint)};
  for (mp::svc::Client* c : {&clients.submit, &clients.results}) {
    std::string err;
    if (!c->connect(&err)) throw std::runtime_error("client: " + err);
  }

  std::vector<Json> specs;
  for (int k = 0; k < netlists; ++k) specs.push_back(eco_job_spec(w, in, k));

  if (args.trace == 1) {
    std::remove("jobs.jsonl");
    mp::obs::set_enabled(true);
    setenv("MP_OBS_OUT", "jobs.jsonl", 1);
  }
  const mp::util::Timer clock;
  const std::vector<JobRecord> stream_jobs_done =
      run_jobs(stream, specs, clients, clock, 0.05, 0, log);
  const Json stats = clients.submit.stats();
  // Capacity: each burst is queued at once after the previous one drained.
  std::vector<double> burst_start;
  std::vector<std::vector<JobRecord>> burst_jobs;
  for (int b = 0; b < w.bursts; ++b) {
    burst_start.push_back(clock.seconds() + 0.05);
    burst_jobs.push_back(run_jobs(bursts[static_cast<std::size_t>(b)], specs,
                                  clients, clock, burst_start.back(),
                                  stream_jobs + b * w.burst_jobs, log));
  }
  serving.stop();
  server.reset();
  service.reset();  // also removes its span listener before the probes
  mp::obs::set_enabled(false);
  unsetenv("MP_OBS_OUT");

  const auto good_stream = check_jobs(stream_jobs_done, "stream", out.ledger);
  std::vector<double> capacity;
  long long rejected = 0;
  for (std::size_t b = 0; b < burst_jobs.size(); ++b) {
    const auto good = check_jobs(burst_jobs[b],
                                 "burst " + std::to_string(b + 1), out.ledger);
    double end = burst_start[b];
    for (const JobRecord* j : good) end = std::max(end, j->completed_s());
    if (!good.empty()) {
      capacity.push_back(static_cast<double>(good.size()) /
                         (end - burst_start[b]));
    }
    for (const JobRecord& j : burst_jobs[b]) rejected += j.accepted ? 0 : 1;
  }

  std::vector<double> latency, run_s, queue_s, ratios, hpwls;
  double late_max = 0.0;
  for (const JobRecord& j : stream_jobs_done) {
    late_max = std::max(late_max, j.sent_s - j.sched_s);
    if (!j.accepted) ++rejected;
  }
  for (const JobRecord* j : good_stream) {
    latency.push_back(j->latency_s());
    run_s.push_back(j->run_s);
    queue_s.push_back(j->queue_s);
    ratios.push_back(j->hpwl / j->input_hpwl);
    hpwls.push_back(j->hpwl);
  }
  std::printf("set-up %.3f s (median of %d); stream: %zu jobs at %.2f/s, "
              "%zu passed, generator at most %.4f s late\n",
              mpbench::median(setup), kSetupRepeats, stream_jobs_done.size(),
              w.rate_per_s, good_stream.size(), late_max);
  std::printf("bursts of %d jobs drained at", w.burst_jobs);
  for (const double c : capacity) std::printf(" %.3f", c);
  std::printf(" jobs/s\n");
  if (!run_s.empty()) {
    std::printf("stream job run time p50 %.4f s, max %.4f s; latency p50 "
                "%.4f s, max %.4f s\n",
                mpbench::median(run_s),
                *std::max_element(run_s.begin(), run_s.end()),
                mpbench::median(latency),
                *std::max_element(latency.begin(), latency.end()));
  }
  const auto tail = mpbench::tail_quantile(static_cast<long long>(latency.size()));
  out.ledger.begin("stream");
  out.ledger.expect(tail.has_value() && *tail >= 0.9, "p90_supported");
  out.ledger.expect(capacity.size() == burst_jobs.size(), "bursts_completed");
  if (latency.empty() || capacity.empty()) return out;

  if (args.trace == 0) {
    out.metrics = {
        {"place_s", mpbench::median(run_s), "s"},
        {"hpwl", geomean(hpwls), "HPWL"},
        {"latency_p50_s", mpbench::median(latency), "s"},
        {"latency_p90_s", mpbench::quantile(latency, 0.9), "s"},
        {"capacity_jobs_per_s", mpbench::median(capacity), "jobs/s"},
        {"eco_hpwl_ratio", geomean(ratios), "ratio"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
        {"setup_s", mpbench::median(setup), "s"},
    };
    return out;
  }

  ServiceFigures sf;
  sf.submit_ms = median_ms(log.durations("svc.submit"));
  sf.queue_wait_p50_s = mpbench::median(queue_s);
  sf.queue_wait_p90_s = mpbench::quantile(queue_s, 0.9);
  sf.run_p50_s = mpbench::median(run_s);
  sf.run_p90_s = mpbench::quantile(run_s, 0.9);
  if (const Json* cache = stats.find("cache")) {
    double hits = 0.0;
    double lookups = 0.0;
    for (const char* pool : {"design", "prepared"}) {
      const double h = cache->find(std::string(pool) + "_hits")->as_number();
      hits += h;
      lookups += h + cache->find(std::string(pool) + "_misses")->as_number();
    }
    sf.cache_hit_ratio = lookups > 0.0 ? hits / lookups : 0.0;
  }
  sf.queue_depth_max = max_queue_depth(stream_jobs_done);
  sf.jobs_rejected = static_cast<double>(rejected);
  sf.late_max_s = late_max;

  // Per-layer split of the traced stream, from every job's own run report.
  LayerTotals totals;
  {
    std::ifstream jsonl("jobs.jsonl");
    std::string line;
    while (std::getline(jsonl, line)) {
      const Json j = Json::parse(line);
      const Json* label = j.find("label");
      if (label == nullptr || label->as_string() != "svc.job") continue;
      totals.add_report(j);
    }
  }

  // Outside probes on the first changed netlist with the incumbent applied.
  Probes probes;
  probes.generate_s = mpbench::median(generate);
  mp::netlist::Design changed =
      probe_read_bookshelf(in.netlists.front(), log, probes);
  {
    ScopedSpan span(log, "io.apply_placement");
    mp::io::apply_placement(changed, mp::io::read_pl(in.incumbent_pl));
  }
  const mp::place::PlacerSpec spec =
      mp::place::spec_from_preset(mp::place::Preset::kRegulate, w.job);
  {
    ScopedSpan span(log, "place.prepare_regulate_flow");
    const mp::place::FlowContext ctx =
        mp::place::prepare_regulate_flow(changed, spec.regulate.flow);
    mp::rl::AgentConfig agent = spec.regulate.agent;
    agent.grid_dim = spec.regulate.flow.grid_dim;
    probe_nn(ctx, agent, log, probes);
  }
  // Tracing overhead: the same regulate placement untraced and traced, in
  // pairs, through place::run on one thread like a service job.
  std::vector<double> ratios_traced;
  {
    mp::par::set_num_threads(1);
    for (int i = 0; i < 3; ++i) {
      double h0 = 0.0;
      double h1 = 0.0;
      double t0 = 0.0;
      double t1 = 0.0;
      {
        ScopedSpan span(log, "place.run");
        t0 = timed_place(changed, spec, out.ledger, "untraced regulate", &h0);
      }
      mp::obs::set_enabled(true);
      {
        ScopedSpan span(log, "place.run");
        t1 = timed_place(changed, spec, out.ledger, "traced regulate", &h1);
      }
      mp::obs::set_enabled(false);
      out.ledger.expect(h0 == h1, "hpwl_identical_traced");
      ratios_traced.push_back(t1 / t0);
    }
    mp::par::set_num_threads(kThreads);
  }
  probes.overhead_frac = mpbench::median(ratios_traced) - 1.0;
  print_shape(args.workload, totals);
  out.metrics = layer_metrics(totals, probes, sf);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mpbench: %s\n", e.what());
    return 2;
  }
  mp::obs::set_enabled(false);
  mp::par::set_num_threads(kThreads);
  SpanLog log(args.trace == 1);
  std::printf("mpbench %s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace);
  Outcome out;
  try {
    out = args.workload == "eco_service" ? run_eco(args, log)
                                         : run_flow(args, log);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mpbench: %s\n", e.what());
    return 1;
  }
  log.write_jsonl(args.spans_out);

  for (const std::string& f : out.ledger.failures()) {
    std::printf("FAILED CHECK %s\n", f.c_str());
  }
  mpbench::RunResult result;
  result.attempted = out.ledger.attempted();
  result.failed = out.ledger.failed();
  result.correct = result.failed == 0 && !out.metrics.empty();
  result.metrics = out.metrics;
  std::printf("fail_frac %.6g (%lld of %lld operations)\n",
              static_cast<double>(result.failed) /
                  static_cast<double>(std::max(1LL, result.attempted)),
              result.failed, result.attempted);
  for (const Metric& m : result.metrics) {
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("%s\n", mpbench::format_result(result).c_str());
  std::fflush(stdout);
  return 0;
}
