// Service SLO load bench: N concurrent clients driving a multi-worker
// LocalService with small synthetic placement jobs, reporting the
// admission -> result latency quantiles the ROADMAP wants as the headline
// scaling number.  The printed p50/p90/p95/p99 come straight from the
// service-global obs histograms the scheduler records (svc.queue_wait,
// svc.run_time, svc.submit_to_result) — the same series the mp_serve
// `metrics` verb exposes — so the bench measures the telemetry path a
// production scrape would read, not a parallel bookkeeping scheme.
//
//   ./bench_service_load [--workers N] [--clients N] [--jobs N]
//                        [--preset sa|mcts|rl|wiremask|analytic]
//                        [--threads N] [--router [--backends N]]
//
// Writes BENCH_service_load.json (bench/artifact.hpp schema) into
// $MP_BENCH_DIR (default cwd).
//
// With --router the bench instead stands up a fleet in-process — N
// TCP-listening mp_serve backends plus an mp_route coordinator
// (docs/DISTRIBUTED.md) — and drives the same load through svc::Client
// connections to the router, so the quantiles include NDJSON framing,
// consistent-hash routing, and the forward hop.  That artifact is
// BENCH_service_fleet.json and its headline series is
// fleet.submit_to_result, measured client-side.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "net/router.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "util/timer.hpp"

using namespace mp;

namespace {

svc::JobSpec load_spec(place::Preset preset, std::uint64_t seed) {
  svc::JobSpec spec;
  spec.use_synthetic = true;
  spec.synthetic.name = "svc-load";
  spec.synthetic.movable_macros = 8;
  spec.synthetic.std_cells = 300;
  spec.synthetic.nets = 400;
  spec.synthetic.io_pads = 16;
  spec.synthetic.seed = 5;
  spec.preset = preset;
  // Distinct seeds keep the jobs distinct specs (unique job-id hash
  // prefixes) while the design stays shared, so the design cache is
  // exercised with hits and the scheduler still sees unique work.
  spec.seed = seed;
  // Tiny RL/MCTS budgets so the non-SA presets finish in seconds.
  spec.episodes = 6;
  spec.gamma = 4;
  spec.grid = 8;
  spec.channels = 8;
  spec.blocks = 1;
  return spec;
}

void print_histogram_row(const std::string& name,
                         const obs::HistogramSnapshot& h) {
  std::printf("%-22s %8lld %10.4f %10.4f %10.4f %10.4f %10.4f\n", name.c_str(),
              h.count, h.mean(), h.quantile(0.5), h.quantile(0.9),
              h.quantile(0.95), h.quantile(0.99));
}

/// One in-process fleet member: a LocalService behind a TCP Server.
struct FleetBackend {
  svc::LocalService service;
  svc::Server server;
  std::thread thread;

  explicit FleetBackend(const svc::ServiceOptions& options)
      : service(options), server(service, "tcp:127.0.0.1:0") {
    std::string error;
    if (!server.start(&error)) {
      std::fprintf(stderr, "backend start failed: %s\n", error.c_str());
      std::abort();
    }
    thread = std::thread([this] { server.serve(); });
  }

  ~FleetBackend() {
    server.request_shutdown();
    thread.join();
  }
};

int run_fleet(int backends_n, int workers, int clients, int jobs_per_client,
              place::Preset preset) {
  const int total_jobs = clients * jobs_per_client;
  svc::ServiceOptions service_options;
  service_options.workers = workers;
  service_options.max_queued = total_jobs + 8;
  service_options.stream_progress = false;  // one span listener per process

  std::vector<std::unique_ptr<FleetBackend>> backends;
  net::RouterOptions router_options;
  for (int b = 0; b < backends_n; ++b) {
    backends.push_back(std::make_unique<FleetBackend>(service_options));
    router_options.backends.push_back(backends.back()->server.bound_uri());
  }
  net::Router router("tcp:127.0.0.1:0", router_options);
  std::string error;
  if (!router.start(&error)) {
    std::fprintf(stderr, "router start failed: %s\n", error.c_str());
    return 1;
  }
  std::thread routing([&router] { router.serve(); });

  std::printf("fleet load: %d backends x %d workers, %d clients x %d jobs, "
              "preset %s\n",
              backends_n, workers, clients, jobs_per_client,
              place::preset_name(preset));

  // Client-side end-to-end latency: submit accepted -> result done, through
  // the router.  obs::Histogram is thread-safe, so the clients share it.
  obs::Registry bench_registry;
  obs::Histogram& submit_to_result =
      bench_registry.histogram("fleet.submit_to_result");
  util::Timer wall;
  std::vector<std::thread> client_threads;
  std::vector<int> failures(static_cast<std::size_t>(clients), 0);
  client_threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    client_threads.emplace_back([&, c] {
      svc::Client client(router.bound_uri());
      std::string connect_error;
      if (!client.connect(&connect_error)) {
        failures[static_cast<std::size_t>(c)] += jobs_per_client;
        return;
      }
      for (int j = 0; j < jobs_per_client; ++j) {
        const std::uint64_t seed =
            1 + static_cast<std::uint64_t>(c) * 1000 +
            static_cast<std::uint64_t>(j);
        const svc::Json spec =
            svc::job_spec_to_json(load_spec(preset, seed));
        util::Timer job_timer;
        try {
          const svc::Json submitted = client.submit(spec);
          const svc::Json* ok = submitted.find("ok");
          if (ok == nullptr || !ok->as_bool()) {
            ++failures[static_cast<std::size_t>(c)];
            continue;
          }
          const svc::Json result =
              client.result(submitted.find("id")->as_string(), 600.0);
          const svc::Json* rok = result.find("ok");
          const svc::Json* job = result.find("job");
          if (rok == nullptr || !rok->as_bool() || job == nullptr ||
              job->find("state")->as_string() != "done") {
            ++failures[static_cast<std::size_t>(c)];
            continue;
          }
        } catch (const std::exception& e) {
          std::fprintf(stderr, "client %d: %s\n", c, e.what());
          ++failures[static_cast<std::size_t>(c)];
          continue;
        }
        submit_to_result.record(job_timer.seconds());
      }
    });
  }
  for (std::thread& t : client_threads) t.join();
  const double wall_s = wall.seconds();

  int failed = 0;
  for (int f : failures) failed += f;
  const int done = total_jobs - failed;
  const double throughput = wall_s > 0.0 ? done / wall_s : 0.0;

  bench::BenchArtifact artifact;
  artifact.name = "service_fleet";
  std::printf("\n%-22s %8s %10s %10s %10s %10s %10s\n", "latency_s", "count",
              "mean", "p50", "p90", "p95", "p99");
  const obs::RegistrySnapshot client_snap = bench_registry.snapshot();
  for (const auto& [name, h] : client_snap.histograms) {
    print_histogram_row(name, h);
    artifact.set_quantiles_from(name, h);
    artifact.metrics[name + ".mean"] = h.mean();
    artifact.metrics[name + ".count"] = static_cast<double>(h.count);
  }
  // The router's own per-backend forward-latency histograms land in the
  // artifact too: the gap between them and fleet.submit_to_result is queue
  // wait plus placement run time.
  const obs::RegistrySnapshot router_snap = router.registry().snapshot();
  for (const auto& [name, h] : router_snap.histograms) {
    print_histogram_row(name, h);
    artifact.set_quantiles_from(name, h);
    artifact.metrics[name + ".count"] = static_cast<double>(h.count);
  }
  for (const auto& [name, value] : router_snap.counters) {
    artifact.metrics[name] = static_cast<double>(value);
  }
  std::printf("\n%d/%d jobs done, %.2fs wall, %.2f jobs/s\n", done, total_jobs,
              wall_s, throughput);

  artifact.config["backends"] = static_cast<double>(backends_n);
  artifact.config["workers"] = static_cast<double>(workers);
  artifact.config["clients"] = static_cast<double>(clients);
  artifact.config["jobs_per_client"] = static_cast<double>(jobs_per_client);
  artifact.config["preset"] = std::string(place::preset_name(preset));
  artifact.metrics["jobs_done"] = static_cast<double>(done);
  artifact.metrics["jobs_failed"] = static_cast<double>(failed);
  artifact.metrics["wall_s"] = wall_s;
  artifact.metrics["throughput_jobs_per_s"] = throughput;
  const std::string path = artifact.write();
  if (!path.empty()) std::printf("artifact: %s\n", path.c_str());

  router.request_shutdown();
  routing.join();
  return failed == 0 && !path.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init_threads(argc, argv);
  int workers = 4, clients = 8, jobs_per_client = 1;
  bool router_mode = false;
  int fleet_backends = 3;
  place::Preset preset = place::Preset::kSa;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--clients") == 0 && i + 1 < argc) {
      clients = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs_per_client = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--preset") == 0 && i + 1 < argc) {
      if (!place::parse_preset(argv[++i], preset)) {
        std::fprintf(stderr, "unknown preset %s\n", argv[i]);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      ++i;  // consumed by init_threads
    } else if (std::strcmp(argv[i], "--router") == 0) {
      router_mode = true;
    } else if (std::strcmp(argv[i], "--backends") == 0 && i + 1 < argc) {
      fleet_backends = std::atoi(argv[++i]);
    }
  }
  workers = std::max(1, workers);
  clients = std::max(1, clients);
  jobs_per_client = std::max(1, jobs_per_client);
  if (router_mode) {
    return run_fleet(std::max(1, fleet_backends), workers, clients,
                     jobs_per_client, preset);
  }
  const int total_jobs = clients * jobs_per_client;

  svc::ServiceOptions options;
  options.workers = workers;
  // Admission control sized to the offered load: this bench measures
  // latency under queueing, not rejection behavior.
  options.max_queued = total_jobs + 8;
  options.stream_progress = false;
  svc::LocalService service(options);

  std::printf("service load: %d workers, %d clients x %d jobs, preset %s, "
              "%d pool threads\n",
              workers, clients, jobs_per_client, place::preset_name(preset),
              par::num_threads());

  util::Timer wall;
  std::vector<std::thread> client_threads;
  std::vector<int> failures(static_cast<std::size_t>(clients), 0);
  client_threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    client_threads.emplace_back([&, c] {
      for (int j = 0; j < jobs_per_client; ++j) {
        const std::uint64_t seed =
            1 + static_cast<std::uint64_t>(c) * 1000 +
            static_cast<std::uint64_t>(j);
        const svc::Scheduler::SubmitResult r =
            service.submit(load_spec(preset, seed));
        if (!r.accepted) {
          ++failures[static_cast<std::size_t>(c)];
          continue;
        }
        service.wait(r.id, 600.0);
        const auto snap = service.status(r.id);
        if (!snap || snap->state != svc::JobState::kDone) {
          ++failures[static_cast<std::size_t>(c)];
        }
      }
    });
  }
  for (std::thread& t : client_threads) t.join();
  const double wall_s = wall.seconds();

  int failed = 0;
  for (int f : failures) failed += f;
  const int done = total_jobs - failed;
  const double throughput = wall_s > 0.0 ? done / wall_s : 0.0;

  // The SLO readout: latency quantiles from the service-global registry the
  // scheduler recorded into while the load ran.
  const obs::RegistrySnapshot snap = service.slo_registry().snapshot();
  std::printf("\n%-22s %8s %10s %10s %10s %10s %10s\n", "latency_s", "count",
              "mean", "p50", "p90", "p95", "p99");
  bench::BenchArtifact artifact;
  artifact.name = "service_load";
  for (const auto& [name, h] : snap.histograms) {
    print_histogram_row(name, h);
    artifact.set_quantiles_from(name, h);
    artifact.metrics[name + ".mean"] = h.mean();
    artifact.metrics[name + ".count"] = static_cast<double>(h.count);
  }
  // Counters and gauges too (svc.jobs.*, svc.queue_depth, ...).
  for (const auto& [name, value] : snap.counters) {
    artifact.metrics[name] = static_cast<double>(value);
  }
  for (const auto& [name, value] : snap.gauges) {
    artifact.metrics[name] = value;
  }
  std::printf("\n%d/%d jobs done, %.2fs wall, %.2f jobs/s\n", done, total_jobs,
              wall_s, throughput);

  artifact.config["workers"] = static_cast<double>(workers);
  artifact.config["clients"] = static_cast<double>(clients);
  artifact.config["jobs_per_client"] = static_cast<double>(jobs_per_client);
  artifact.config["preset"] = std::string(place::preset_name(preset));
  artifact.metrics["jobs_done"] = static_cast<double>(done);
  artifact.metrics["jobs_failed"] = static_cast<double>(failed);
  artifact.metrics["wall_s"] = wall_s;
  artifact.metrics["throughput_jobs_per_s"] = throughput;
  const std::string path = artifact.write();
  if (!path.empty()) std::printf("artifact: %s\n", path.c_str());
  return failed == 0 && !path.empty() ? 0 : 1;
}
