// Tests for the placement service (src/svc): JSON protocol values, job-spec
// validation, the LRU artifact cache, thread-budget arbitration, scheduler
// ordering/admission/cancel (including the multi-worker fairness and
// shutdown-race contracts), the LocalService end-to-end determinism contract
// (service job ≡ offline placer call, warm ≡ cold, N workers ≡ 1 worker,
// 1-thread lease ≡ 4-thread lease), cooperative cancellation, and the socket
// server/client round trip.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "benchgen/generator.hpp"
#include "check/check.hpp"
#include "netlist/validate.hpp"
#include "obs/obs.hpp"
#include "par/par.hpp"
#include "place/placer.hpp"
#include "svc/budget.hpp"
#include "svc/cache.hpp"
#include "svc/client.hpp"
#include "svc/hash.hpp"
#include "svc/job.hpp"
#include "svc/scheduler.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"

namespace mp::svc {
namespace {

// ---------------------------------------------------------------------------
// JSON

TEST(Json, ParseDumpRoundTripIsCanonical) {
  const Json v = Json::parse(
      R"({"b":[1,2.5,true,null],"a":"x\ny","nested":{"k":-3}})");
  // Sorted keys, integers without fraction, escapes re-encoded.
  EXPECT_EQ(v.dump(), R"({"a":"x\ny","b":[1,2.5,true,null],"nested":{"k":-3}})");
  EXPECT_EQ(Json::parse(v.dump()).dump(), v.dump());
}

TEST(Json, ParseDecodesUnicodeEscapes) {
  const Json v = Json::parse(R"("Aé")");
  EXPECT_EQ(v.as_string(), "A\xc3\xa9");
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("[1,]"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), JsonError);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
  EXPECT_THROW(Json::parse("nul"), JsonError);
}

TEST(Json, TypedAccessorsThrowOnMismatch) {
  const Json v = Json::parse("42");
  EXPECT_DOUBLE_EQ(v.as_number(), 42.0);
  EXPECT_THROW(v.as_string(), JsonError);
  EXPECT_THROW(v.items(), JsonError);
  EXPECT_THROW(v.members(), JsonError);
}

// ---------------------------------------------------------------------------
// Job specs

Json tiny_synthetic_spec_json() {
  Json spec = Json::object();
  Json synth = Json::object();
  synth["name"] = Json::string("svc-tiny");
  synth["movable_macros"] = Json::number(8);
  synth["std_cells"] = Json::number(300);
  synth["nets"] = Json::number(400);
  synth["io_pads"] = Json::number(16);
  synth["seed"] = Json::number(5);
  spec["synthetic"] = synth;
  spec["preset"] = Json::string("mcts");
  spec["episodes"] = Json::number(6);
  spec["gamma"] = Json::number(4);
  spec["grid"] = Json::number(8);
  spec["channels"] = Json::number(8);
  spec["blocks"] = Json::number(1);
  return spec;
}

JobSpec tiny_synthetic_spec() {
  return parse_job_spec(tiny_synthetic_spec_json());
}

TEST(JobSpec, ParsesAndRoundTrips) {
  const JobSpec spec = tiny_synthetic_spec();
  EXPECT_TRUE(spec.use_synthetic);
  EXPECT_EQ(spec.synthetic.movable_macros, 8);
  EXPECT_EQ(spec.preset, FlowPreset::kMcts);
  EXPECT_EQ(spec.episodes, 6);
  EXPECT_EQ(spec.grid, 8);
  // Canonical form survives a parse round trip.
  const JobSpec again = parse_job_spec(job_spec_to_json(spec));
  EXPECT_EQ(job_canonical_string(again), job_canonical_string(spec));
}

TEST(JobSpec, RejectsUnknownKey) {
  Json spec = tiny_synthetic_spec_json();
  spec["episides"] = Json::number(10);  // typo'd knob must not be silent
  EXPECT_THROW(parse_job_spec(spec), JobError);
}

TEST(JobSpec, RejectsFractionalAndOutOfRangeValues) {
  Json spec = tiny_synthetic_spec_json();
  spec["episodes"] = Json::number(6.5);
  EXPECT_THROW(parse_job_spec(spec), JobError);
  spec = tiny_synthetic_spec_json();
  spec["grid"] = Json::number(1);
  EXPECT_THROW(parse_job_spec(spec), JobError);
  spec = tiny_synthetic_spec_json();
  spec["priority"] = Json::number(1000);
  EXPECT_THROW(parse_job_spec(spec), JobError);
}

TEST(JobSpec, RequiresExactlyOneDesignSource) {
  EXPECT_THROW(parse_job_spec(Json::object()), JobError);
  Json both = tiny_synthetic_spec_json();
  both["design"] = Json::string("/tmp/some_prefix");
  EXPECT_THROW(parse_job_spec(both), JobError);
}

TEST(JobSpec, RejectsUnknownPreset) {
  Json spec = tiny_synthetic_spec_json();
  spec["preset"] = Json::string("quantum");
  EXPECT_THROW(parse_job_spec(spec), JobError);
}

TEST(JobSpec, PresetAliasesMatchCli) {
  FlowPreset p;
  ASSERT_TRUE(parse_preset("ours", p));
  EXPECT_EQ(p, FlowPreset::kMcts);
  ASSERT_TRUE(parse_preset("rl", p));
  EXPECT_EQ(p, FlowPreset::kRlOnly);
  EXPECT_FALSE(parse_preset("nope", p));
}

TEST(JobSpec, JobIdsAreStablePerSpecAndUniquePerSubmission) {
  const JobSpec spec = tiny_synthetic_spec();
  const std::string a = make_job_id(spec, 1);
  const std::string b = make_job_id(spec, 2);
  EXPECT_NE(a, b);
  // Same spec => same hash prefix (the part before the seq suffix).
  EXPECT_EQ(a.substr(0, a.rfind('-')), b.substr(0, b.rfind('-')));
  JobSpec other = spec;
  other.episodes = 7;
  const std::string c = make_job_id(other, 1);
  EXPECT_NE(a.substr(0, a.rfind('-')), c.substr(0, c.rfind('-')));
}

// ---------------------------------------------------------------------------
// LRU pool

TEST(LruPool, EvictsLeastRecentlyUsed) {
  LruPool<int> pool(2);
  pool.put("a", std::make_shared<int>(1));
  pool.put("b", std::make_shared<int>(2));
  ASSERT_NE(pool.get("a"), nullptr);  // bumps "a"; "b" is now LRU
  pool.put("c", std::make_shared<int>(3));
  EXPECT_EQ(pool.get("b"), nullptr);
  ASSERT_NE(pool.get("a"), nullptr);
  EXPECT_EQ(*pool.get("a"), 1);
  ASSERT_NE(pool.get("c"), nullptr);
  EXPECT_EQ(pool.size(), 2u);
}

// ---------------------------------------------------------------------------
// Thread-budget arbiter

TEST(ThreadArbiter, PartitionsBudgetAndReclaimsOnRelease) {
  ThreadArbiter arbiter(8);
  EXPECT_EQ(arbiter.total(), 8);
  ThreadLease lone = arbiter.acquire(0);  // 0 = "give me everything"
  EXPECT_EQ(lone.threads(), 8);           // lone job gets the whole machine
  ThreadLease starved = arbiter.acquire(4);
  EXPECT_EQ(starved.threads(), 1);  // budget exhausted: floor of 1, no stall
  EXPECT_EQ(arbiter.leased(), 9);   // bounded oversubscription
  lone.release();
  EXPECT_EQ(arbiter.leased(), 1);
  ThreadLease half = arbiter.acquire(4);
  EXPECT_EQ(half.threads(), 4);  // reclaimed budget is grantable again
  ThreadLease capped = arbiter.acquire(100);
  EXPECT_EQ(capped.threads(), 3);  // min(want, remaining)
}

TEST(ThreadArbiter, LeaseReleaseIsIdempotentAndMoveSafe) {
  ThreadArbiter arbiter(4);
  ThreadLease a = arbiter.acquire(2);
  ThreadLease b = std::move(a);  // moved-from lease must not double-release
  EXPECT_EQ(a.threads(), 0);
  EXPECT_EQ(b.threads(), 2);
  b.release();
  b.release();  // second release is a no-op
  EXPECT_EQ(arbiter.leased(), 0);
}

// ---------------------------------------------------------------------------
// Scheduler (with a fake runner)

// Runner that records execution-start order and blocks each job until a
// token is released (counting-semaphore gate, so tests can let exactly one
// job through) or its cancel token fires.
struct GatedRunner {
  std::mutex mutex;
  std::condition_variable cv;
  int tokens = 0;
  std::vector<std::string> order;
  std::atomic<int> max_granted_threads{0};

  Scheduler::Runner runner() {
    return [this](const std::string& id, const JobSpec&,
                  const util::CancelToken& cancel,
                  const Scheduler::RunContext& ctx) {
      std::unique_lock<std::mutex> lock(mutex);
      order.push_back(id);
      int seen = max_granted_threads.load();
      while (ctx.threads > seen &&
             !max_granted_threads.compare_exchange_weak(seen, ctx.threads)) {
      }
      while (true) {
        if (cancel.cancelled()) {
          JobOutcome out;
          out.cancelled = true;
          return out;
        }
        if (tokens > 0) {
          --tokens;
          return JobOutcome{};
        }
        cv.wait_for(lock, std::chrono::milliseconds(1));
      }
    };
  }

  /// Lets `n` blocked/future jobs run to completion.
  void release(int n = 1 << 20) {
    std::lock_guard<std::mutex> lock(mutex);
    tokens += n;
    cv.notify_all();
  }

  std::vector<std::string> order_snapshot() {
    std::lock_guard<std::mutex> lock(mutex);
    return order;
  }
};

void wait_until_running(const Scheduler& scheduler, const std::string& id) {
  while (true) {
    const std::vector<std::string> running = scheduler.running_jobs();
    if (std::find(running.begin(), running.end(), id) != running.end()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(Scheduler, DispatchesByPriorityThenFifo) {
  GatedRunner gate;
  Scheduler scheduler(gate.runner(), /*max_queued=*/8);
  const JobSpec base = tiny_synthetic_spec();
  const std::string blocker = scheduler.submit(base).id;
  wait_until_running(scheduler, blocker);  // queue fills while this blocks

  JobSpec lo = base;
  lo.priority = 0;
  JobSpec hi = base;
  hi.priority = 5;
  const std::string lo_a = scheduler.submit(lo).id;
  const std::string hi_id = scheduler.submit(hi).id;
  const std::string lo_b = scheduler.submit(lo).id;
  gate.release();
  scheduler.drain();

  const std::vector<std::string> expected = {blocker, hi_id, lo_a, lo_b};
  EXPECT_EQ(gate.order, expected);
}

TEST(Scheduler, RejectsWhenQueueFull) {
  GatedRunner gate;
  Scheduler scheduler(gate.runner(), /*max_queued=*/1);
  const JobSpec spec = tiny_synthetic_spec();
  const std::string blocker = scheduler.submit(spec).id;
  wait_until_running(scheduler, blocker);
  EXPECT_TRUE(scheduler.submit(spec).accepted);  // fills the queue
  const Scheduler::SubmitResult rejected = scheduler.submit(spec);
  EXPECT_FALSE(rejected.accepted);
  EXPECT_FALSE(rejected.error.empty());
  gate.release();
  scheduler.drain();
}

TEST(Scheduler, CancelsQueuedJobWithoutRunningIt) {
  GatedRunner gate;
  Scheduler scheduler(gate.runner(), /*max_queued=*/8);
  const JobSpec spec = tiny_synthetic_spec();
  const std::string blocker = scheduler.submit(spec).id;
  wait_until_running(scheduler, blocker);
  const std::string queued = scheduler.submit(spec).id;
  EXPECT_TRUE(scheduler.cancel(queued));
  EXPECT_FALSE(scheduler.cancel(queued));  // already terminal
  gate.release();
  scheduler.drain();

  const auto snap = scheduler.status(queued);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->state, JobState::kCancelled);
  // Never executed: only the blocker reached the runner.
  EXPECT_EQ(gate.order, std::vector<std::string>{blocker});
}

TEST(Scheduler, ThrowingRunnerMarksJobFailed) {
  Scheduler scheduler(
      [](const std::string&, const JobSpec&, const util::CancelToken&,
         const Scheduler::RunContext&) -> JobOutcome {
        throw std::runtime_error("boom");
      },
      8);
  const std::string id = scheduler.submit(tiny_synthetic_spec()).id;
  ASSERT_TRUE(scheduler.wait(id, 30.0));
  const auto snap = scheduler.status(id);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->state, JobState::kFailed);
  EXPECT_NE(snap->error.find("boom"), std::string::npos);
}

TEST(Scheduler, DeadlineArmsCancelTokenWhenJobStarts) {
  Scheduler scheduler(
      [](const std::string&, const JobSpec&, const util::CancelToken& cancel,
         const Scheduler::RunContext&) {
        while (!cancel.cancelled()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        JobOutcome out;
        out.cancelled = true;
        return out;
      },
      8);
  JobSpec spec = tiny_synthetic_spec();
  spec.deadline_s = 0.05;
  const std::string id = scheduler.submit(spec).id;
  ASSERT_TRUE(scheduler.wait(id, 30.0));
  const auto snap = scheduler.status(id);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->state, JobState::kCancelled);
  EXPECT_TRUE(snap->outcome.cancelled);
}

TEST(Scheduler, HighPriorityJobDispatchedWhileLowPriorityWaits) {
  // Fairness under load: with every worker busy, the next freed worker must
  // pick the high-priority job even though a low-priority one queued first.
  GatedRunner gate;
  Scheduler scheduler(gate.runner(), /*max_queued=*/8, /*workers=*/2);
  EXPECT_EQ(scheduler.workers(), 2);
  const JobSpec base = tiny_synthetic_spec();
  const std::string blocker_a = scheduler.submit(base).id;
  const std::string blocker_b = scheduler.submit(base).id;
  wait_until_running(scheduler, blocker_a);
  wait_until_running(scheduler, blocker_b);

  JobSpec lo = base;
  lo.priority = 0;
  JobSpec hi = base;
  hi.priority = 5;
  const std::string lo_id = scheduler.submit(lo).id;
  const std::string hi_id = scheduler.submit(hi).id;

  gate.release(1);  // exactly one blocker finishes, freeing one worker
  wait_until_running(scheduler, hi_id);
  const std::vector<std::string> order = gate.order_snapshot();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[2], hi_id);  // dispatched ahead of the earlier lo job
  {
    const auto snap = scheduler.status(lo_id);
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->state, JobState::kQueued);
  }
  gate.release();
  scheduler.drain();
  const auto lo_snap = scheduler.status(lo_id);
  ASSERT_TRUE(lo_snap.has_value());
  EXPECT_EQ(lo_snap->state, JobState::kDone);
}

TEST(Scheduler, GrantsThreadLeasesWithinBudget) {
  GatedRunner gate;
  Scheduler scheduler(gate.runner(), /*max_queued=*/8, /*workers=*/2,
                      /*thread_budget=*/6);
  EXPECT_EQ(scheduler.thread_budget(), 6);
  JobSpec spec = tiny_synthetic_spec();
  spec.threads = 4;
  const std::string a = scheduler.submit(spec).id;
  const std::string b = scheduler.submit(spec).id;
  wait_until_running(scheduler, a);
  wait_until_running(scheduler, b);
  // First grant honors the request (4); the second gets the remainder (2).
  EXPECT_EQ(scheduler.threads_leased(), 6);
  gate.release();
  scheduler.drain();
  EXPECT_EQ(scheduler.threads_leased(), 0);  // leases reclaimed
  const auto snap_a = scheduler.status(a);
  const auto snap_b = scheduler.status(b);
  ASSERT_TRUE(snap_a.has_value() && snap_b.has_value());
  EXPECT_EQ(snap_a->granted_threads + snap_b->granted_threads, 6);
  EXPECT_EQ(gate.max_granted_threads.load(), 4);  // RunContext saw the lease
}

TEST(Scheduler, ConcurrentShutdownCancelAndDrainAreIdempotent) {
  // Regression for the shutdown/cancel race: drain(), shutdown_now(), and
  // cancel() storming from many threads at once must neither deadlock nor
  // double-join the workers, and every job must end in a terminal state.
  GatedRunner gate;
  Scheduler scheduler(gate.runner(), /*max_queued=*/16, /*workers=*/3);
  const JobSpec spec = tiny_synthetic_spec();
  std::vector<std::string> ids;
  for (int i = 0; i < 10; ++i) ids.push_back(scheduler.submit(spec).id);
  wait_until_running(scheduler, ids[0]);

  std::vector<std::thread> stormers;
  stormers.emplace_back([&] { scheduler.shutdown_now(); });
  stormers.emplace_back([&] { scheduler.shutdown_now(); });
  stormers.emplace_back([&] { scheduler.drain(); });
  stormers.emplace_back([&] {
    for (const std::string& id : ids) scheduler.cancel(id);
  });
  for (std::thread& t : stormers) t.join();
  scheduler.drain();         // idempotent after shutdown
  scheduler.shutdown_now();  // idempotent after join

  EXPECT_FALSE(scheduler.accepting());
  EXPECT_EQ(scheduler.queued_count(), 0);
  EXPECT_TRUE(scheduler.running_jobs().empty());
  for (const std::string& id : ids) {
    const auto snap = scheduler.status(id);
    ASSERT_TRUE(snap.has_value());
    EXPECT_TRUE(snap->state == JobState::kDone ||
                snap->state == JobState::kCancelled)
        << id << ": " << job_state_name(snap->state);
  }
}

// ---------------------------------------------------------------------------
// LocalService end-to-end

ServiceOptions quiet_options() {
  ServiceOptions o;
  o.stream_progress = false;  // most tests don't need the global listener
  return o;
}

TEST(LocalService, ConcurrentMixedPresetJobsAllComplete) {
  LocalService service(quiet_options());
  const FlowPreset presets[] = {FlowPreset::kMcts, FlowPreset::kRlOnly,
                                FlowPreset::kSa, FlowPreset::kWiremask};
  std::vector<std::string> ids;
  for (const FlowPreset preset : presets) {
    JobSpec spec = tiny_synthetic_spec();
    spec.preset = preset;
    const Scheduler::SubmitResult r = service.submit(spec);
    ASSERT_TRUE(r.accepted) << r.error;
    ids.push_back(r.id);
  }
  for (const std::string& id : ids) {
    ASSERT_TRUE(service.wait(id, 600.0)) << id;
    const auto snap = service.status(id);
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->state, JobState::kDone)
        << id << ": " << snap->error;
    EXPECT_TRUE(snap->outcome.finalized);
    EXPECT_GT(snap->outcome.hpwl, 0.0);
    EXPECT_NE(snap->outcome.placement_hash, 0u);
  }
}

TEST(LocalService, MctsJobBitIdenticalToOfflinePlacerCall) {
  const JobSpec spec = tiny_synthetic_spec();

  // Offline path: the shared preset derivation, cold, no service involved.
  netlist::Design design = benchgen::generate(spec.synthetic);
  place::PresetKnobs knobs;
  knobs.grid = spec.grid;
  knobs.channels = spec.channels;
  knobs.blocks = spec.blocks;
  knobs.episodes = spec.episodes;
  knobs.gamma = spec.gamma;
  const place::PlacerSpec pspec =
      place::spec_from_preset(place::Preset::kMcts, knobs);
  const place::PlaceResult direct = place::run(design, pspec);
  const std::uint64_t offline_hash = placement_fingerprint(design);

  // Service path: same spec through the scheduler + warm cache machinery.
  LocalService service(quiet_options());
  const std::string id = service.submit(spec).id;
  ASSERT_TRUE(service.wait(id, 600.0));
  const auto snap = service.status(id);
  ASSERT_TRUE(snap.has_value());
  ASSERT_EQ(snap->state, JobState::kDone) << snap->error;
  EXPECT_EQ(snap->outcome.placement_hash, offline_hash);
  EXPECT_DOUBLE_EQ(snap->outcome.hpwl, direct.hpwl);
}

TEST(LocalService, WarmCacheResubmissionIsBitIdenticalAndHits) {
  LocalService service(quiet_options());
  const JobSpec spec = tiny_synthetic_spec();
  const std::string cold = service.submit(spec).id;
  ASSERT_TRUE(service.wait(cold, 600.0));
  const std::string warm = service.submit(spec).id;
  ASSERT_TRUE(service.wait(warm, 600.0));

  const auto a = service.status(cold);
  const auto b = service.status(warm);
  ASSERT_TRUE(a.has_value() && b.has_value());
  ASSERT_EQ(a->state, JobState::kDone) << a->error;
  ASSERT_EQ(b->state, JobState::kDone) << b->error;
  EXPECT_EQ(a->outcome.placement_hash, b->outcome.placement_hash);

  const CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.design_misses, 1);
  EXPECT_GE(stats.design_hits, 1);
  EXPECT_EQ(stats.prepared_misses, 1);
  EXPECT_GE(stats.prepared_hits, 1);
}

TEST(LocalService, SloMetricsCoverCompletedJobs) {
  // Three jobs through the service: the service-global SLO registry must
  // carry matching counter totals and one latency sample per job in each of
  // the three histograms, and both exports must surface them.
  ServiceOptions options = quiet_options();
  options.workers = 2;
  LocalService service(options);
  constexpr int kJobs = 3;
  std::vector<std::string> ids;
  for (int i = 0; i < kJobs; ++i) {
    JobSpec spec = tiny_synthetic_spec();
    spec.seed = 100 + static_cast<std::uint64_t>(i);
    const Scheduler::SubmitResult r = service.submit(spec);
    ASSERT_TRUE(r.accepted) << r.error;
    ids.push_back(r.id);
  }
  for (const std::string& id : ids) ASSERT_TRUE(service.wait(id, 600.0));

  // RegistrySnapshot stores name/value pairs; index them for lookups.
  const obs::RegistrySnapshot snap = service.slo_registry().snapshot();
  const std::map<std::string, long long> counters(snap.counters.begin(),
                                                  snap.counters.end());
  const std::map<std::string, double> gauges(snap.gauges.begin(),
                                             snap.gauges.end());
  const std::map<std::string, obs::HistogramSnapshot> hists(
      snap.histograms.begin(), snap.histograms.end());
  EXPECT_EQ(counters.at("svc.jobs.submitted"), kJobs);
  EXPECT_EQ(counters.at("svc.jobs.done"), kJobs);
  for (const char* name :
       {"svc.queue_wait", "svc.run_time", "svc.submit_to_result"}) {
    const auto it = hists.find(name);
    ASSERT_NE(it, hists.end()) << name;
    EXPECT_EQ(it->second.count, kJobs) << name;
    EXPECT_GE(it->second.quantile(0.95), it->second.quantile(0.5)) << name;
  }
  // Latency decomposition: submit-to-result covers queue wait plus run time.
  EXPECT_GE(hists.at("svc.submit_to_result").sum,
            hists.at("svc.run_time").sum);
  // Drained: no queued or running work left behind the gauges.
  EXPECT_DOUBLE_EQ(gauges.at("svc.queue_depth"), 0.0);
  EXPECT_DOUBLE_EQ(gauges.at("svc.active_jobs"), 0.0);

  // JSON export mirrors the registry, quantiles included.
  const Json metrics = service.metrics_json();
  EXPECT_DOUBLE_EQ(metrics.find("counters")->find("svc.jobs.done")->as_number(),
                   kJobs);
  const Json* run_time = metrics.find("histograms")->find("svc.run_time");
  ASSERT_NE(run_time, nullptr);
  EXPECT_DOUBLE_EQ(run_time->find("count")->as_number(), kJobs);
  for (const char* q : {"p50", "p90", "p95", "p99"}) {
    EXPECT_TRUE(run_time->has(q)) << q;
  }
  // Cache gauges are refreshed on export and match cache_stats().
  const CacheStats stats = service.cache_stats();
  EXPECT_DOUBLE_EQ(metrics.find("gauges")->find("svc.cache_hit")->as_number(),
                   static_cast<double>(stats.design_hits +
                                       stats.prepared_hits +
                                       stats.weights_hits));

  // Prometheus exposition carries the same metrics under sanitized names.
  const std::string prom = service.metrics_prom();
  EXPECT_NE(prom.find("# TYPE mp_svc_jobs_done counter"), std::string::npos);
  EXPECT_NE(prom.find("mp_svc_jobs_done 3"), std::string::npos);
  EXPECT_NE(prom.find("mp_svc_submit_to_result{quantile=\"0.99\"}"),
            std::string::npos);
}

TEST(LocalService, ConcurrentWorkersShareOnePreparedArtifact) {
  // Two workers, two identical cold jobs submitted back-to-back: the cache's
  // in-flight dedup must build each artifact exactly once (1 miss) and hand
  // the second job the same build (1 hit) — never a duplicate build.
  ServiceOptions options = quiet_options();
  options.workers = 2;
  LocalService service(options);
  ASSERT_EQ(service.workers(), 2);
  const JobSpec spec = tiny_synthetic_spec();
  const std::string a = service.submit(spec).id;
  const std::string b = service.submit(spec).id;
  ASSERT_TRUE(service.wait(a, 600.0));
  ASSERT_TRUE(service.wait(b, 600.0));

  const auto snap_a = service.status(a);
  const auto snap_b = service.status(b);
  ASSERT_TRUE(snap_a.has_value() && snap_b.has_value());
  ASSERT_EQ(snap_a->state, JobState::kDone) << snap_a->error;
  ASSERT_EQ(snap_b->state, JobState::kDone) << snap_b->error;
  // Same spec through either worker: bit-identical placements.
  EXPECT_EQ(snap_a->outcome.placement_hash, snap_b->outcome.placement_hash);

  const CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.design_misses, 1);
  EXPECT_EQ(stats.design_hits, 1);
  EXPECT_EQ(stats.prepared_misses, 1);
  EXPECT_EQ(stats.prepared_hits, 1);
}

TEST(LocalService, FourWorkersBitIdenticalToOneWorkerAndOffline) {
  // The headline determinism contract: per-job results are bit-identical
  // whether jobs run alone (1 worker, whole thread budget) or concurrently
  // (4 workers, partitioned budget) — and both match the offline
  // place::run() path at the same preset/seed.
  std::vector<JobSpec> specs;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    JobSpec spec = tiny_synthetic_spec();
    spec.seed = seed;
    specs.push_back(spec);
  }

  auto run_all = [&](int workers) {
    ServiceOptions options = quiet_options();
    options.workers = workers;
    LocalService service(options);
    std::vector<std::string> ids;
    for (const JobSpec& spec : specs) ids.push_back(service.submit(spec).id);
    std::vector<std::uint64_t> hashes;
    for (const std::string& id : ids) {
      EXPECT_TRUE(service.wait(id, 600.0)) << id;
      const auto snap = service.status(id);
      EXPECT_TRUE(snap.has_value());
      EXPECT_EQ(snap->state, JobState::kDone) << snap->error;
      hashes.push_back(snap->outcome.placement_hash);
    }
    return hashes;
  };

  const std::vector<std::uint64_t> wide = run_all(4);
  const std::vector<std::uint64_t> narrow = run_all(1);
  EXPECT_EQ(wide, narrow);

  for (std::size_t i = 0; i < specs.size(); ++i) {
    netlist::Design design = benchgen::generate(specs[i].synthetic);
    place::PresetKnobs knobs;
    knobs.episodes = specs[i].episodes;
    knobs.gamma = specs[i].gamma;
    knobs.grid = specs[i].grid;
    knobs.channels = specs[i].channels;
    knobs.blocks = specs[i].blocks;
    knobs.seed = specs[i].seed;
    place::run(design, place::spec_from_preset(specs[i].preset, knobs));
    EXPECT_EQ(placement_fingerprint(design), wide[i]) << "seed " << (i + 1);
  }
}

TEST(LocalService, LeaseWidthDoesNotChangePlacement) {
  // A job leased one thread (as under load) places exactly as the same job
  // leased four: self-play runs one windowed loop at every pool size.
  struct ThreadGuard {
    int saved = par::num_threads();
    ThreadGuard() { par::set_num_threads(4); }
    ~ThreadGuard() { par::set_num_threads(saved); }
  } guard;
  ServiceOptions options = quiet_options();
  options.workers = 1;
  LocalService service(options);
  std::vector<JobSnapshot> snaps;
  for (const int threads : {1, 4}) {
    JobSpec spec = tiny_synthetic_spec();
    spec.preset = FlowPreset::kRlOnly;
    spec.threads = threads;
    const std::string id = service.submit(spec).id;
    ASSERT_TRUE(service.wait(id, 600.0)) << id;
    const auto snap = service.status(id);
    ASSERT_TRUE(snap.has_value());
    ASSERT_EQ(snap->state, JobState::kDone) << snap->error;
    EXPECT_EQ(snap->granted_threads, threads);
    snaps.push_back(*snap);
  }
  EXPECT_EQ(snaps[0].outcome.placement_hash, snaps[1].outcome.placement_hash);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(snaps[0].outcome.hpwl),
            std::bit_cast<std::uint64_t>(snaps[1].outcome.hpwl));
}

TEST(LocalService, FourWorkerMixedPresetStressWithMidRunCancels) {
  // The in-process twin of the check.sh TSan stress leg: 4 workers chew
  // through 8 mixed-preset jobs while two long jobs are cancelled mid-run.
  ServiceOptions options = quiet_options();
  options.workers = 4;
  LocalService service(options);
  const FlowPreset presets[] = {FlowPreset::kMcts, FlowPreset::kRlOnly,
                                FlowPreset::kSa, FlowPreset::kWiremask};
  std::vector<std::string> ids;
  std::vector<std::string> doomed;
  for (int i = 0; i < 8; ++i) {
    JobSpec spec = tiny_synthetic_spec();
    spec.preset = presets[i % 4];
    spec.seed = static_cast<std::uint64_t>(i + 1);
    const bool cancel_me = (i == 2 || i == 5);
    if (cancel_me) {
      spec.preset = FlowPreset::kMcts;
      spec.episodes = 600;  // long enough that cancel lands mid-run
    }
    const Scheduler::SubmitResult r = service.submit(spec);
    ASSERT_TRUE(r.accepted) << r.error;
    ids.push_back(r.id);
    if (cancel_me) doomed.push_back(r.id);
  }
  for (const std::string& id : doomed) {
    while (true) {
      const auto snap = service.status(id);
      ASSERT_TRUE(snap.has_value());
      if (snap->state != JobState::kQueued) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    service.cancel(id);
  }
  service.drain();
  for (const std::string& id : ids) {
    const auto snap = service.status(id);
    ASSERT_TRUE(snap.has_value());
    const bool was_doomed =
        std::find(doomed.begin(), doomed.end(), id) != doomed.end();
    if (was_doomed) {
      EXPECT_EQ(snap->state, JobState::kCancelled) << id;
    } else {
      EXPECT_EQ(snap->state, JobState::kDone) << id << ": " << snap->error;
      EXPECT_GT(snap->outcome.hpwl, 0.0);
    }
  }
}

TEST(LocalService, CancelStopsRunningJob) {
  LocalService service(quiet_options());
  JobSpec spec = tiny_synthetic_spec();
  spec.episodes = 600;  // long enough that cancel lands mid-run
  const std::string id = service.submit(spec).id;
  while (true) {
    const auto snap = service.status(id);
    ASSERT_TRUE(snap.has_value());
    if (snap->state == JobState::kRunning) break;
    ASSERT_EQ(snap->state, JobState::kQueued);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(service.cancel(id));
  ASSERT_TRUE(service.wait(id, 120.0));
  const auto snap = service.status(id);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->state, JobState::kCancelled);
  EXPECT_TRUE(snap->outcome.cancelled);
}

TEST(LocalService, DeadlineExpiresLongJob) {
  LocalService service(quiet_options());
  JobSpec spec = tiny_synthetic_spec();
  spec.episodes = 600;
  spec.deadline_s = 0.25;
  const std::string id = service.submit(spec).id;
  ASSERT_TRUE(service.wait(id, 120.0));
  const auto snap = service.status(id);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->state, JobState::kCancelled);
  EXPECT_TRUE(snap->outcome.cancelled);
}

TEST(LocalService, MissingDesignFileFailsJobWithError) {
  LocalService service(quiet_options());
  JobSpec spec;
  spec.design_path = "/nonexistent/mp_svc_test_prefix";
  const std::string id = service.submit(spec).id;
  ASSERT_TRUE(service.wait(id, 60.0));
  const auto snap = service.status(id);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->state, JobState::kFailed);
  EXPECT_FALSE(snap->error.empty());
}

TEST(LocalService, StreamsPhaseProgressForRunningJob) {
  ServiceOptions options;
  options.stream_progress = true;
  LocalService service(options);
  std::mutex mutex;
  std::vector<ProgressEvent> events;
  const int token = service.add_progress_listener([&](const ProgressEvent& e) {
    std::lock_guard<std::mutex> lock(mutex);
    events.push_back(e);
  });
  const std::string id = service.submit(tiny_synthetic_spec()).id;
  ASSERT_TRUE(service.wait(id, 600.0));
  service.remove_progress_listener(token);

  std::lock_guard<std::mutex> lock(mutex);
  ASSERT_FALSE(events.empty());
  bool saw_envelope_exit = false, saw_phase = false;
  for (const ProgressEvent& e : events) {
    EXPECT_EQ(e.job_id, id);
    EXPECT_LE(e.depth, options.max_progress_depth);
    if (e.phase == "svc.job" && !e.enter) {
      saw_envelope_exit = true;
      EXPECT_GT(e.seconds, 0.0);
    }
    if (e.depth == 2) saw_phase = true;
  }
  EXPECT_TRUE(saw_envelope_exit);
  EXPECT_TRUE(saw_phase);
}

// ---------------------------------------------------------------------------
// Cooperative cancellation at the placer level (the primitives the service
// deadline/cancel paths are built from)

// Restores the MP_VALIDATE_LEVEL override on scope exit.
struct ScopedValidateLevel {
  explicit ScopedValidateLevel(int level) : previous(check::validate_level()) {
    check::set_validate_level(level);
  }
  ~ScopedValidateLevel() { check::set_validate_level(previous); }
  int previous;
};

TEST(CancelToken, PreCancelledFlowReturnsPromptlyWithValidDesign) {
  // Exhaustive validators stay on for the whole truncated flow: a cancelled
  // run must not leave a structurally invalid intermediate state behind.
  ScopedValidateLevel deep(2);
  const JobSpec spec = tiny_synthetic_spec();
  place::PresetKnobs knobs;
  knobs.episodes = spec.episodes;
  knobs.gamma = spec.gamma;
  knobs.grid = spec.grid;
  knobs.channels = spec.channels;
  knobs.blocks = spec.blocks;
  // regulate refines a legal incumbent: the analytic baseline's placement.
  netlist::Design incumbent = benchgen::generate(spec.synthetic);
  place::run(incumbent,
             place::spec_from_preset(place::Preset::kAnalytic, knobs));
  for (const place::Preset preset :
       {place::Preset::kMcts, place::Preset::kRlOnly,
        place::Preset::kRegulate}) {
    for (const bool warm : {false, true}) {
      SCOPED_TRACE(std::string(place::preset_name(preset)) +
                   (warm ? " on a PreparedFlow" : " cold"));
      const bool regulate = preset == place::Preset::kRegulate;
      netlist::Design design =
          regulate ? incumbent : benchgen::generate(spec.synthetic);
      place::PlacerSpec pspec = place::spec_from_preset(preset, knobs);
      std::optional<place::PreparedFlow> prepared;
      if (warm) {
        prepared = place::PreparedFlow{
            regulate ? place::prepare_regulate_flow(design, pspec.regulate.flow)
                     : place::prepare_flow(design, pspec.mcts_rl.flow)};
      }
      const std::uint64_t input_fingerprint = placement_fingerprint(design);
      pspec.cancel = util::CancelToken::make();
      pspec.cancel.request_cancel();
      const place::PlaceResult result =
          place::run(design, pspec, prepared ? &*prepared : nullptr);
      EXPECT_TRUE(result.cancelled);
      const netlist::ValidationReport report =
          netlist::validate_design(design);
      EXPECT_TRUE(report.ok())
          << (report.errors.empty() ? "" : report.errors[0]);
      if (regulate) {
        // A cancelled regulate hands back the legal input untouched.
        EXPECT_TRUE(result.finalized);
        EXPECT_EQ(result.hpwl, result.input_hpwl);
        EXPECT_EQ(placement_fingerprint(design), input_fingerprint);
      }
    }
  }
}

TEST(CancelToken, DeadlineCancelsMidFlowLeavingValidDesign) {
  ScopedValidateLevel deep(2);
  JobSpec spec = tiny_synthetic_spec();
  spec.episodes = 600;  // would run for a long time uncancelled
  netlist::Design design = benchgen::generate(spec.synthetic);
  place::PlacerSpec pspec;
  pspec.preset = place::Preset::kMcts;
  pspec.mcts_rl.flow.grid_dim = spec.grid;
  pspec.mcts_rl.agent.channels = spec.channels;
  pspec.mcts_rl.agent.res_blocks = spec.blocks;
  pspec.mcts_rl.train.episodes = spec.episodes;
  pspec.mcts_rl.mcts.explorations_per_move = spec.gamma;
  pspec.cancel = util::CancelToken::make();
  pspec.cancel.set_deadline_after(0.2);
  const place::PlaceResult result = place::run(design, pspec);
  EXPECT_TRUE(result.cancelled);
  const netlist::ValidationReport report = netlist::validate_design(design);
  EXPECT_TRUE(report.ok()) << (report.errors.empty() ? "" : report.errors[0]);
}

TEST(CancelToken, MidFlowCancelFromAnotherThreadStopsSelfPlay) {
  JobSpec spec = tiny_synthetic_spec();
  spec.episodes = 600;
  netlist::Design design = benchgen::generate(spec.synthetic);
  place::PlacerSpec pspec;
  pspec.preset = place::Preset::kMcts;
  pspec.mcts_rl.flow.grid_dim = spec.grid;
  pspec.mcts_rl.agent.channels = spec.channels;
  pspec.mcts_rl.train.episodes = spec.episodes;
  pspec.mcts_rl.agent.res_blocks = spec.blocks;
  pspec.mcts_rl.mcts.explorations_per_move = spec.gamma;
  pspec.cancel = util::CancelToken::make();
  std::thread canceller([token = pspec.cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    token.request_cancel();
  });
  const place::PlaceResult result = place::run(design, pspec);
  canceller.join();
  EXPECT_TRUE(result.cancelled);
  EXPECT_TRUE(netlist::validate_design(design).ok());
}

TEST(CancelToken, UntriggeredTokenIsBitIdenticalToNoToken) {
  const JobSpec spec = tiny_synthetic_spec();
  place::PlacerSpec pspec;
  pspec.preset = place::Preset::kMcts;
  pspec.mcts_rl.flow.grid_dim = spec.grid;
  pspec.mcts_rl.agent.channels = spec.channels;
  pspec.mcts_rl.agent.res_blocks = spec.blocks;
  pspec.mcts_rl.train.episodes = spec.episodes;
  pspec.mcts_rl.mcts.explorations_per_move = spec.gamma;

  netlist::Design inert = benchgen::generate(spec.synthetic);
  const place::PlaceResult a = place::run(inert, pspec);

  netlist::Design armed = benchgen::generate(spec.synthetic);
  pspec.cancel = util::CancelToken::make();  // live but never cancelled
  const place::PlaceResult b = place::run(armed, pspec);

  EXPECT_FALSE(a.cancelled);
  EXPECT_FALSE(b.cancelled);
  EXPECT_EQ(placement_fingerprint(inert), placement_fingerprint(armed));
  EXPECT_DOUBLE_EQ(a.hpwl, b.hpwl);
}

// ---------------------------------------------------------------------------
// Socket server + client

TEST(Server, SubmitWatchStatsShutdownOverSocket) {
  const std::string socket_path =
      "/tmp/mp_test_svc_" + std::to_string(::getpid()) + ".sock";
  LocalService service;  // stream_progress on: watch needs phase events
  Server server(service, socket_path);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  std::thread serving([&server] { server.serve(); });

  Client client(socket_path);
  ASSERT_TRUE(client.connect(&error)) << error;

  // Unknown verbs are errors, not disconnects.
  const Json bad = client.request(Json::parse(R"({"verb":"frobnicate"})"));
  ASSERT_TRUE(bad.find("ok") != nullptr);
  EXPECT_FALSE(bad.find("ok")->as_bool());

  const Json submitted = client.submit(tiny_synthetic_spec_json());
  ASSERT_TRUE(submitted.find("ok") != nullptr);
  ASSERT_TRUE(submitted.find("ok")->as_bool()) << submitted.dump();
  const std::string id = submitted.find("id")->as_string();

  int phase_events = 0;
  const Json done = client.watch(id, [&](const Json& event) {
    const Json* kind = event.find("event");
    if (kind != nullptr && kind->as_string() == "phase") ++phase_events;
  });
  ASSERT_TRUE(done.find("job") != nullptr) << done.dump();
  const Json& job = *done.find("job");
  EXPECT_EQ(job.find("state")->as_string(), "done");
  ASSERT_TRUE(job.find("outcome") != nullptr);
  EXPECT_FALSE(job.find("outcome")->find("placement_hash")->as_string().empty());
  EXPECT_GT(phase_events, 0);

  const Json stats = client.stats();
  ASSERT_TRUE(stats.find("ok")->as_bool());
  EXPECT_DOUBLE_EQ(stats.find("jobs")->find("done")->as_number(), 1.0);

  // Live SLO metrics: JSON by default, Prometheus text with format:"prom".
  const Json metrics = client.metrics();
  ASSERT_TRUE(metrics.find("ok")->as_bool()) << metrics.dump();
  EXPECT_DOUBLE_EQ(
      metrics.find("counters")->find("svc.jobs.done")->as_number(), 1.0);
  const Json* run_time = metrics.find("histograms")->find("svc.run_time");
  ASSERT_NE(run_time, nullptr);
  EXPECT_DOUBLE_EQ(run_time->find("count")->as_number(), 1.0);
  EXPECT_TRUE(run_time->has("p95"));

  const Json prom = client.metrics(/*prom=*/true);
  ASSERT_TRUE(prom.find("ok")->as_bool()) << prom.dump();
  EXPECT_EQ(prom.find("format")->as_string(), "prom");
  const std::string& exposition = prom.find("text")->as_string();
  EXPECT_NE(exposition.find("# TYPE mp_svc_jobs_done counter"),
            std::string::npos);
  EXPECT_NE(exposition.find("mp_svc_run_time{quantile=\"0.5\"}"),
            std::string::npos);

  const Json ack = client.shutdown();
  EXPECT_TRUE(ack.find("ok")->as_bool());
  serving.join();  // serve() returns only after the drain
  EXPECT_FALSE(service.accepting());
  client.close();
  std::remove(socket_path.c_str());
}

}  // namespace
}  // namespace mp::svc
