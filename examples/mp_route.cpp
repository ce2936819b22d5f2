// Fleet coordinator daemon (docs/DISTRIBUTED.md):
//
//   ./mp_route --listen tcp:0.0.0.0:7400
//              --backends tcp:hostA:7411,tcp:hostB:7411,tcp:hostC:7411
//              [--vnodes N] [--backlog N] [--health-period S]
//
// Speaks the same NDJSON protocol as mp_serve, so mp_submit pointed at the
// router works unchanged: submits are consistent-hashed onto the backend
// ring by spec content, job verbs follow the job wherever it runs, and a
// dead backend's jobs are re-submitted to the ring successor (deterministic
// jobs make the retry byte-identical).  SIGTERM/SIGINT stop accepting and
// exit; backends keep running their queues.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "net/router.hpp"

namespace {

mp::net::Router* g_router = nullptr;

void on_signal(int) {
  if (g_router != nullptr) g_router->request_shutdown();
}

int usage() {
  std::fprintf(stderr,
               "usage: mp_route --listen URI --backends URI,URI,... "
               "[--vnodes N] [--backlog N] [--health-period S]\n");
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
  mp::net::RouterOptions options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--listen") == 0 && i + 1 < argc) {
      listen_uri = argv[++i];
    } else if (std::strcmp(argv[i], "--backends") == 0 && i + 1 < argc) {
      options.backends = split_csv(argv[++i]);
    } else if (std::strcmp(argv[i], "--vnodes") == 0 && i + 1 < argc) {
      options.vnodes = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--backlog") == 0 && i + 1 < argc) {
      options.backlog = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--health-period") == 0 && i + 1 < argc) {
      options.health_period_s = std::atof(argv[++i]);
    } else {
      return usage();
    }
  }
  if (listen_uri.empty() || options.backends.empty() || options.vnodes < 1 ||
      options.backlog < 1) {
    return usage();
  }

  mp::net::Router router(listen_uri, options);
  std::string error;
  if (!router.start(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  g_router = &router;
  struct sigaction sa {};
  sa.sa_handler = on_signal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);

  std::printf("mp_route: listening on %s (%zu backends, %d vnodes)\n",
              router.bound_uri().c_str(), options.backends.size(),
              options.vnodes);
  std::fflush(stdout);
  router.serve();
  std::printf("mp_route: stopped\n");
  g_router = nullptr;
  return 0;
}
