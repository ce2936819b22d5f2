// Long-lived placement service daemon:
//
//   ./mp_serve --socket /tmp/mp.sock [--max-queued N] [--threads N]
//             [--workers N] [--backlog N]
//   ./mp_serve --listen tcp:0.0.0.0:7411 --peers tcp:hostB:7411,tcp:hostC:7411
//
// Speaks newline-delimited JSON over a Unix domain socket or TCP (protocol
// in src/svc/server.hpp, endpoint grammar in src/net/endpoint.hpp; submit
// work with mp_submit, or front a fleet of these with mp_route —
// docs/DISTRIBUTED.md).  --peers lists the OTHER backends' endpoints; on a
// cache miss this backend then fetches warm artifacts from them instead of
// rebuilding.  SIGTERM/SIGINT drain gracefully: the socket stops accepting,
// the running job and the queued backlog complete, then the process exits 0.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "net/peer.hpp"
#include "obs/trace.hpp"
#include "par/par.hpp"
#include "svc/server.hpp"

namespace {

mp::svc::Server* g_server = nullptr;

// Async-signal-safe: request_shutdown is one atomic store + one pipe write.
void on_signal(int) {
  if (g_server != nullptr) g_server->request_shutdown();
}

int usage() {
  std::fprintf(stderr,
               "usage: mp_serve (--socket PATH | --listen URI) [--max-queued "
               "N] [--threads N] [--workers N] [--backlog N] "
               "[--peers URI,URI,...]\n");
  return 2;
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) out.push_back(csv.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string listen_uri;
  std::string peers_csv;
  mp::svc::ServiceOptions options;
  mp::svc::ServerOptions server_options;
  for (int i = 1; i < argc; ++i) {
    if ((std::strcmp(argv[i], "--socket") == 0 ||
         std::strcmp(argv[i], "--listen") == 0) &&
        i + 1 < argc) {
      listen_uri = argv[++i];
    } else if (std::strcmp(argv[i], "--max-queued") == 0 && i + 1 < argc) {
      options.max_queued = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      mp::par::set_num_threads(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      options.workers = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--backlog") == 0 && i + 1 < argc) {
      server_options.backlog = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--peers") == 0 && i + 1 < argc) {
      peers_csv = argv[++i];
    } else {
      return usage();
    }
  }
  if (listen_uri.empty() || server_options.backlog < 1) return usage();

  mp::svc::LocalService service(options);
  std::unique_ptr<mp::net::PeerFetcher> peer_fetcher;
  if (!peers_csv.empty()) {
    peer_fetcher =
        std::make_unique<mp::net::PeerFetcher>(split_csv(peers_csv));
    mp::net::PeerFetcher* fetcher = peer_fetcher.get();
    service.set_peer_fetcher([fetcher](const std::string& kind,
                                       const std::string& key,
                                       std::string* blob) {
      return fetcher->fetch(kind, key, blob);
    });
  }
  mp::svc::Server server(service, listen_uri, server_options);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  g_server = &server;
  struct sigaction sa {};
  sa.sa_handler = on_signal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);

  std::printf("mp_serve: listening on %s (max %d queued, %d workers, %zu "
              "peers)\n",
              server.bound_uri().c_str(), options.max_queued,
              service.workers(),
              peer_fetcher != nullptr ? peer_fetcher->peers().size()
                                      : static_cast<std::size_t>(0));
  std::fflush(stdout);
  server.serve();

  // serve() returns only after the drain completed.
  int done = 0, failed = 0, cancelled = 0;
  for (const mp::svc::JobSnapshot& snap : service.jobs()) {
    if (snap.state == mp::svc::JobState::kDone) ++done;
    else if (snap.state == mp::svc::JobState::kFailed) ++failed;
    else if (snap.state == mp::svc::JobState::kCancelled) ++cancelled;
  }
  std::printf("mp_serve: drained (%d done, %d failed, %d cancelled)\n", done,
              failed, cancelled);
  // With MP_OBS_TRACE set, persist the span timeline now that every job has
  // finished (the atexit flush would also fire, but an explicit flush after
  // the drain makes the file complete even if exit paths change).
  if (mp::obs::trace_enabled() && mp::obs::trace_flush()) {
    std::printf("mp_serve: trace written to %s\n",
                std::getenv("MP_OBS_TRACE") != nullptr
                    ? std::getenv("MP_OBS_TRACE") : "(trace path)");
  }
  g_server = nullptr;
  return 0;
}
