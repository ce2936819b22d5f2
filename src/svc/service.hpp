#pragma once
// LocalService — the placement service without the socket: scheduler +
// artifact cache + per-preset job runners, embeddable in tests and tools.
// The socket server (src/svc/server.hpp) is a thin protocol shim over this
// class, so everything observable over the wire is testable in-process.
//
// Determinism contract: jobs execute concurrently on the scheduler's worker
// threads, each inside its own obs context and on a private par:: sub-pool
// sized by its thread lease (parallelism lives *inside* a job; leases
// partition the machine).  Runners derive options through the one shared
// place::spec_from_preset, and warm-cache hits resume from a deterministic
// prepare_flow artifact — and since par:: results are thread-count
// independent, a job's placement is bit-identical to `place_bookshelf` at
// equal settings, warm or cold, at any worker count (verified by
// tests/test_svc.cpp and the scripts/check.sh smoke + TSan legs).

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "check/annotations.hpp"
#include "svc/cache.hpp"
#include "svc/scheduler.hpp"

namespace mp::svc {

struct ServiceOptions {
  int max_queued = 32;          ///< admission-control bound
  /// Concurrent job executors.  0 resolves MP_WORKERS (falling back to 1),
  /// so existing single-worker deployments keep their behavior; the thread
  /// budget (par::num_threads()) is partitioned across whatever runs.
  int workers = 0;
  std::size_t cache_designs = 8;
  std::size_t cache_prepared = 8;
  std::size_t cache_weights = 4;
  std::size_t cache_placements = 4;  ///< incumbent placements (ECO jobs)
  /// Stream per-phase progress by installing the process-wide
  /// obs::set_span_listener (removed again on destruction).  At most one
  /// service per process should enable this.
  bool stream_progress = true;
  /// Span depth cutoff for progress events: 1 is just the job envelope,
  /// 2 adds the flow phases (prepare / rl.train / mcts.search / finalize).
  int max_progress_depth = 2;
};

/// One streamed progress notification (span enter/exit of the running job).
struct ProgressEvent {
  std::string job_id;
  std::string phase;     ///< slash-joined span path, e.g. "svc.job/rl.train"
  int depth = 0;
  bool enter = false;    ///< true = phase started, false = finished
  double seconds = 0.0;  ///< wall time of the phase on exit, 0 on enter
};

class LocalService {
 public:
  using ProgressFn = std::function<void(const ProgressEvent&)>;

  explicit LocalService(ServiceOptions options = {});
  ~LocalService();  ///< shutdown_now + listener removal

  LocalService(const LocalService&) = delete;
  LocalService& operator=(const LocalService&) = delete;

  // Scheduler pass-throughs (see scheduler.hpp for semantics).
  Scheduler::SubmitResult submit(const JobSpec& spec);
  bool cancel(const std::string& id);
  std::optional<JobSnapshot> status(const std::string& id) const;
  std::vector<JobSnapshot> jobs() const;
  bool wait(const std::string& id, double timeout_s = 0.0) const;
  void drain();
  void shutdown_now();
  bool accepting() const;

  CacheStats cache_stats() const { return cache_.stats(); }
  int workers() const { return scheduler_->workers(); }

  /// Installs the fleet peer source consulted on a cache miss before a local
  /// rebuild (net::PeerFetcher; docs/DISTRIBUTED.md).  Call before serving.
  void set_peer_fetcher(ArtifactCache::PeerFetchFn fn) {
    cache_.set_peer_fetcher(std::move(fn));
  }

  /// Serves the `fetch_artifact` verb: serializes the cached artifact with
  /// the given content key (kind "design" / "prepared" / "weights") into
  /// `blob`.  False when the cache does not hold the key (the peer rebuilds)
  /// or the kind is unknown.
  bool artifact_blob(const std::string& kind, const std::string& key,
                     std::string* blob);
  /// Protocol "stats" object: job counts by state, queue depth, cache
  /// hit/miss counters, worker count, thread budget.
  Json stats_json() const;

  /// Protocol "metrics" object: a live snapshot of the service-global SLO
  /// registry — svc.queue_wait / svc.run_time / svc.submit_to_result
  /// histograms (count, mean, p50/p90/p95/p99), svc.queue_depth /
  /// svc.active_jobs gauges, svc.jobs.* counters, svc.cache_{hit,miss}
  /// totals.  Safe to call while jobs run (torn-read-safe snapshots).
  /// Non-const: refreshes the cache gauges before snapshotting.
  Json metrics_json();
  /// Same snapshot as Prometheus text exposition (obs::prometheus_text).
  std::string metrics_prom();
  /// The service-global SLO registry (scraped by metrics_json; tests).  The
  /// non-const overload lets the socket layer record transport counters
  /// (net.accept.*) next to the service SLOs.
  const obs::Registry& slo_registry() const { return slo_ctx_.registry(); }
  obs::Registry& slo_registry() { return slo_ctx_.registry(); }

  /// Registers a progress sink (server watch streams, tests); returns a
  /// token for remove_progress_listener.  Callbacks fire on the job's
  /// execution threads and must not block.
  int add_progress_listener(ProgressFn fn);
  void remove_progress_listener(int token);

  /// Protocol "job" object for a snapshot (docs/SERVICE.md schema).
  static Json job_to_json(const JobSnapshot& snap);

 private:
  JobOutcome execute(const std::string& id, const JobSpec& spec,
                     const util::CancelToken& cancel,
                     const Scheduler::RunContext& ctx);
  void on_span(const std::string& path, int depth, bool enter, double seconds);

  /// Syncs cache hit/miss totals into the SLO registry's gauges so a
  /// metrics scrape sees them next to the latency histograms.
  void refresh_slo_cache_gauges();

  ServiceOptions options_;
  ArtifactCache cache_;
  /// Service-global SLO telemetry (scheduler latencies, queue gauges).
  /// Declared before scheduler_: worker threads record into this registry
  /// until the scheduler joins them, so it must be destroyed after.
  obs::Context slo_ctx_{"svc"};
  std::unique_ptr<Scheduler> scheduler_;

  std::mutex listeners_mutex_ MP_GUARDS(listeners_, next_listener_token_);
  std::map<int, ProgressFn> listeners_ MP_GUARDED_BY(listeners_mutex_);
  int next_listener_token_ MP_GUARDED_BY(listeners_mutex_) = 1;
};

/// FNV-1a fingerprint over every node position's bit pattern, in node order.
/// Two bit-identical placements — e.g. a service job and the offline CLI at
/// equal settings — share it; any position differing in even one ulp does
/// not.
std::uint64_t placement_fingerprint(const netlist::Design& design);

}  // namespace mp::svc
