#include "svc/service.hpp"

#include <algorithm>
#include <vector>

#include "io/bookshelf.hpp"
#include "net/wire.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "par/par.hpp"
#include "place/placer.hpp"
#include "svc/hash.hpp"
#include "util/env.hpp"
#include "util/log.hpp"

namespace mp::svc {

std::uint64_t placement_fingerprint(const netlist::Design& design) {
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < design.num_nodes(); ++i) {
    const geometry::Point p =
        design.node(static_cast<netlist::NodeId>(i)).position;
    h = fnv1a64_double(p.x, h);
    h = fnv1a64_double(p.y, h);
  }
  return h;
}

namespace {

// Shared CLI/service/bench knob mapping: JobSpec fields → place::PresetKnobs.
// The actual preset → options derivation lives in place::spec_from_preset,
// the single copy every front end uses (bit-identity by construction).
place::PresetKnobs knobs_for(const JobSpec& spec) {
  place::PresetKnobs knobs;
  knobs.episodes = spec.episodes;
  knobs.gamma = spec.gamma;
  knobs.grid = spec.grid;
  knobs.channels = spec.channels;
  knobs.blocks = spec.blocks;
  knobs.seed = spec.seed;
  knobs.regulate_radius = spec.regulate_radius;
  knobs.regulate_max_moves = spec.regulate_max_moves;
  knobs.regulate_frozen = spec.regulate_frozen;
  return knobs;
}

}  // namespace

LocalService::LocalService(ServiceOptions options)
    : options_(options),
      cache_(options.cache_designs, options.cache_prepared,
             options.cache_weights, options.cache_placements) {
  if (options_.workers <= 0) {
    options_.workers = std::max(1, util::env_int("MP_WORKERS", 1));
  }
  scheduler_ = std::make_unique<Scheduler>(
      [this](const std::string& id, const JobSpec& spec,
             const util::CancelToken& cancel, const Scheduler::RunContext& ctx) {
        return execute(id, spec, cancel, ctx);
      },
      options_.max_queued, options_.workers, /*thread_budget=*/0,
      &slo_ctx_.registry());
  if (options_.stream_progress) {
    obs::set_span_listener(
        [this](const std::string& path, int depth, bool enter,
               double seconds) { on_span(path, depth, enter, seconds); });
  }
}

LocalService::~LocalService() {
  // Stop the worker before tearing down the listener plumbing it feeds.
  scheduler_->shutdown_now();
  if (options_.stream_progress) obs::set_span_listener({});
}

Scheduler::SubmitResult LocalService::submit(const JobSpec& spec) {
  return scheduler_->submit(spec);
}

bool LocalService::cancel(const std::string& id) {
  return scheduler_->cancel(id);
}

std::optional<JobSnapshot> LocalService::status(const std::string& id) const {
  return scheduler_->status(id);
}

std::vector<JobSnapshot> LocalService::jobs() const {
  return scheduler_->jobs();
}

bool LocalService::wait(const std::string& id, double timeout_s) const {
  return scheduler_->wait(id, timeout_s);
}

void LocalService::drain() { scheduler_->drain(); }

void LocalService::shutdown_now() { scheduler_->shutdown_now(); }

bool LocalService::accepting() const { return scheduler_->accepting(); }

int LocalService::add_progress_listener(ProgressFn fn) {
  std::lock_guard<std::mutex> lock(listeners_mutex_);
  const int token = next_listener_token_++;
  listeners_[token] = std::move(fn);
  return token;
}

void LocalService::remove_progress_listener(int token) {
  std::lock_guard<std::mutex> lock(listeners_mutex_);
  listeners_.erase(token);
}

void LocalService::on_span(const std::string& path, int depth, bool enter,
                           double seconds) {
  if (depth > options_.max_progress_depth) return;
  // The listener fires on whichever thread recorded the span, and every
  // thread working for a job carries that job's obs context (the scheduler
  // installs it; par propagates it to pool workers) — so the context tag is
  // the owning job even with many jobs in flight.  Spans outside any job
  // (other library users in-process) have no tag and are not streamed.
  const std::string& job_id = obs::current_context_tag();
  if (job_id.empty()) return;
  ProgressEvent event{job_id, path, depth, enter, seconds};
  std::vector<ProgressFn> sinks;
  {
    std::lock_guard<std::mutex> lock(listeners_mutex_);
    sinks.reserve(listeners_.size());
    for (const auto& [token, fn] : listeners_) sinks.push_back(fn);
  }
  for (const ProgressFn& fn : sinks) fn(event);
}

JobOutcome LocalService::execute(const std::string& id, const JobSpec& spec,
                                 const util::CancelToken& cancel,
                                 const Scheduler::RunContext& ctx) {
  // Each job owns a private telemetry context — a fresh registry tagged
  // with the job id, so every counter/span/JSONL line this job (and the
  // pool workers it fans out to) records is attributed to it — and a
  // private par:: pool sized to its thread lease, so concurrent jobs
  // partition the machine instead of fighting over the global pool.
  obs::Context obs_context(id);
  obs::ScopedContext scoped_obs(&obs_context);
  par::ThreadPool pool(ctx.threads);
  par::ScopedPool scoped_pool(&pool);

  JobOutcome out;
  std::string design_name;
  util::Timer run_timer;
  {
    obs::Span job_span("svc.job");
    const std::shared_ptr<const DesignArtifact> loaded =
        cache_.design_for(spec);
    design_name = loaded->design.name();
    netlist::Design design;

    place::PlacerSpec pspec =
        place::spec_from_preset(spec.preset, knobs_for(spec));
    pspec.cancel = cancel;

    if (spec.preset == FlowPreset::kRegulate) {
      if (!spec.weights_path.empty()) {
        pspec.regulate.initial_parameters =
            cache_.weights_for(spec.weights_path)->parameters;
      }
      const std::shared_ptr<const PlacementArtifact> placement =
          cache_.placement_for(spec.initial_placement_path);
      const std::shared_ptr<const PreparedArtifact> prepared =
          cache_.prepared_regulate_for(loaded, placement,
                                       pspec.regulate.flow);
      design = prepared->design;  // base design + incumbent placement
      place::PreparedFlow warm{prepared->context};
      const place::PlaceResult r = place::run(design, pspec, &warm);
      out.hpwl = r.hpwl;
      out.coarse_wirelength = r.coarse_wirelength;
      out.cancelled = r.cancelled;
      out.finalized = r.finalized;
      out.macro_groups = r.macro_groups;
      out.input_hpwl = r.input_hpwl;
      out.moved_groups = r.moved_groups;
    } else if (spec.preset == FlowPreset::kMcts ||
               spec.preset == FlowPreset::kRlOnly) {
      if (!spec.weights_path.empty()) {
        pspec.mcts_rl.initial_parameters =
            cache_.weights_for(spec.weights_path)->parameters;
      }
      const std::shared_ptr<const PreparedArtifact> prepared =
          cache_.prepared_for(loaded, pspec.mcts_rl.flow);
      design = prepared->design;  // post-prepare copy the job may mutate
      place::PreparedFlow warm{prepared->context};
      const place::PlaceResult r = place::run(design, pspec, &warm);
      out.hpwl = r.hpwl;
      out.coarse_wirelength = r.coarse_wirelength;
      out.cancelled = r.cancelled;
      out.finalized = r.finalized;
      out.macro_groups = r.macro_groups;
    } else {
      design = loaded->design;
      const place::PlaceResult r = place::run(design, pspec);
      out.hpwl = r.hpwl;
      out.cancelled = r.cancelled;
      out.finalized = r.finalized;
    }

    out.placement_hash = placement_fingerprint(design);
    if (!spec.out_prefix.empty()) io::write_bookshelf(design, spec.out_prefix);
  }
  // Per-job copies of the SLO latencies (the scheduler records the
  // service-global ones): landing them in the job's own registry puts
  // p50/p95/p99 on this job's JSONL run line, attributable via "ctx".
  if (obs::enabled()) {
    const double run_s = run_timer.seconds();
    double queue_s = 0.0;
    // queue_seconds is set before the runner is invoked, so it is stable.
    if (const auto snap = scheduler_->status(id)) queue_s = snap->queue_seconds;
    obs::Registry& reg = obs_context.registry();
    reg.histogram("svc.queue_wait").record(queue_s);
    reg.histogram("svc.run_time").record(run_s);
    reg.histogram("svc.submit_to_result").record(queue_s + run_s);
  }
  obs::write_run_report("svc.job", {{"job_id", id},
                                    {"preset", preset_name(spec.preset)},
                                    {"design", design_name}});
  return out;
}

Json LocalService::job_to_json(const JobSnapshot& snap) {
  Json j = Json::object();
  j["id"] = Json::string(snap.id);
  j["state"] = Json::string(job_state_name(snap.state));
  j["seq"] = Json::number(static_cast<double>(snap.seq));
  j["queue_s"] = Json::number(snap.queue_seconds);
  j["run_s"] = Json::number(snap.run_seconds);
  if (!snap.error.empty()) j["error"] = Json::string(snap.error);
  j["spec"] = job_spec_to_json(snap.spec);
  if (snap.state == JobState::kDone || snap.state == JobState::kCancelled) {
    Json o = Json::object();
    o["hpwl"] = Json::number(snap.outcome.hpwl);
    o["coarse_wirelength"] = Json::number(snap.outcome.coarse_wirelength);
    o["cancelled"] = Json::boolean(snap.outcome.cancelled);
    o["finalized"] = Json::boolean(snap.outcome.finalized);
    o["placement_hash"] = Json::string(hash_hex(snap.outcome.placement_hash));
    o["macro_groups"] = Json::number(snap.outcome.macro_groups);
    // ECO-only fields, gated so v1 job documents keep their exact shape.
    if (snap.spec.preset == FlowPreset::kRegulate) {
      o["input_hpwl"] = Json::number(snap.outcome.input_hpwl);
      o["moved_groups"] = Json::number(snap.outcome.moved_groups);
    }
    j["outcome"] = o;
  }
  return j;
}

bool LocalService::artifact_blob(const std::string& kind,
                                 const std::string& key, std::string* blob) {
  if (kind == "design") {
    if (const auto a = cache_.peek_design(key)) {
      *blob = net::serialize_design(a->design);
      return true;
    }
    return false;
  }
  if (kind == "prepared") {
    if (const auto a = cache_.peek_prepared(key)) {
      *blob = net::serialize_prepared(a->design, a->context);
      return true;
    }
    return false;
  }
  if (kind == "weights") {
    if (const auto a = cache_.peek_weights(key)) {
      *blob = net::serialize_weights(a->parameters);
      return true;
    }
    return false;
  }
  if (kind == "placement") {
    if (const auto a = cache_.peek_placement(key)) {
      *blob = net::serialize_placement(a->entries);
      return true;
    }
    return false;
  }
  return false;
}

void LocalService::refresh_slo_cache_gauges() {
  const CacheStats cache = cache_stats();
  obs::Registry& reg = slo_ctx_.registry();
  reg.gauge("svc.cache_hit")
      .set(static_cast<double>(cache.design_hits + cache.prepared_hits +
                               cache.weights_hits + cache.placement_hits));
  reg.gauge("svc.cache_miss")
      .set(static_cast<double>(cache.design_misses + cache.prepared_misses +
                               cache.weights_misses + cache.placement_misses));
}

namespace {

Json histogram_to_json(const obs::HistogramSnapshot& h) {
  Json j = Json::object();
  j["count"] = Json::number(static_cast<long long>(h.count));
  j["sum"] = Json::number(h.sum);
  j["min"] = Json::number(h.min);
  j["max"] = Json::number(h.max);
  j["mean"] = Json::number(h.mean());
  j["p50"] = Json::number(h.quantile(0.5));
  j["p90"] = Json::number(h.quantile(0.9));
  j["p95"] = Json::number(h.quantile(0.95));
  j["p99"] = Json::number(h.quantile(0.99));
  return j;
}

}  // namespace

Json LocalService::metrics_json() {
  refresh_slo_cache_gauges();
  const obs::RegistrySnapshot snap = slo_ctx_.registry().snapshot();
  Json j = Json::object();
  Json counters = Json::object();
  for (const auto& [name, value] : snap.counters) {
    counters[name] = Json::number(value);
  }
  j["counters"] = counters;
  Json gauges = Json::object();
  for (const auto& [name, value] : snap.gauges) {
    gauges[name] = Json::number(value);
  }
  j["gauges"] = gauges;
  Json hists = Json::object();
  for (const auto& [name, h] : snap.histograms) {
    hists[name] = histogram_to_json(h);
  }
  j["histograms"] = hists;
  j["workers"] = Json::number(workers());
  j["threads"] = Json::number(par::num_threads());
  return j;
}

std::string LocalService::metrics_prom() {
  refresh_slo_cache_gauges();
  return obs::prometheus_text(slo_ctx_.registry().snapshot());
}

Json LocalService::stats_json() const {
  Json j = Json::object();
  long long queued = 0, running = 0, done = 0, failed = 0, cancelled = 0;
  for (const JobSnapshot& snap : jobs()) {
    switch (snap.state) {
      case JobState::kQueued: ++queued; break;
      case JobState::kRunning: ++running; break;
      case JobState::kDone: ++done; break;
      case JobState::kFailed: ++failed; break;
      case JobState::kCancelled: ++cancelled; break;
    }
  }
  Json jobs_obj = Json::object();
  jobs_obj["queued"] = Json::number(queued);
  jobs_obj["running"] = Json::number(running);
  jobs_obj["done"] = Json::number(done);
  jobs_obj["failed"] = Json::number(failed);
  jobs_obj["cancelled"] = Json::number(cancelled);
  j["jobs"] = jobs_obj;
  const CacheStats cache = cache_stats();
  Json cache_obj = Json::object();
  cache_obj["design_hits"] = Json::number(cache.design_hits);
  cache_obj["design_misses"] = Json::number(cache.design_misses);
  cache_obj["prepared_hits"] = Json::number(cache.prepared_hits);
  cache_obj["prepared_misses"] = Json::number(cache.prepared_misses);
  cache_obj["weights_hits"] = Json::number(cache.weights_hits);
  cache_obj["weights_misses"] = Json::number(cache.weights_misses);
  cache_obj["placement_hits"] = Json::number(cache.placement_hits);
  cache_obj["placement_misses"] = Json::number(cache.placement_misses);
  cache_obj["design_peer_hits"] = Json::number(cache.design_peer_hits);
  cache_obj["prepared_peer_hits"] = Json::number(cache.prepared_peer_hits);
  cache_obj["weights_peer_hits"] = Json::number(cache.weights_peer_hits);
  cache_obj["placement_peer_hits"] = Json::number(cache.placement_peer_hits);
  j["cache"] = cache_obj;
  j["workers"] = Json::number(workers());
  j["threads"] = Json::number(par::num_threads());
  j["accepting"] = Json::boolean(accepting());
  return j;
}

}  // namespace mp::svc
