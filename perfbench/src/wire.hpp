// Process and socket plumbing for the wire workload and the ladder's
// net::Client rung: the shipped examples/net_server as a child process, its
// /metrics endpoint scraped over HTTP, and blocking socket helpers for the
// pipelined frame generator.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

/// examples/net_server running as a child with the observability stack on
/// (--monitor-port 0, a sampler). Its stdout/stderr go to a log file in
/// `workdir`, never to the benchmark's own stdout.
class ServerProcess {
 public:
  /// Spawns and blocks until the port file appears (throws on failure or
  /// after `timeout_s`).
  ServerProcess(const std::string& binary, const std::string& workdir, double timeout_s = 60);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t tcp_port() const { return tcp_port_; }
  uint16_t monitor_port() const { return monitor_port_; }

  /// SIGTERM, wait for exit. Returns the child's peak resident set in MB
  /// (from its rusage), or a negative value when it did not exit cleanly.
  double stop();

 private:
  pid_t pid_ = -1;
  uint16_t tcp_port_ = 0, monitor_port_ = 0;
};

/// One scrape of GET /metrics: every sample line keyed by its full series
/// name (with labels), plus `family` sums keyed by the bare metric name.
struct Scrape {
  std::map<std::string, double> series;
  std::map<std::string, double> family;
  double ms = 0;  // wall time of the scrape
  bool ok = false;
  double get(const std::string& name) const {
    auto it = family.find(name);
    return it == family.end() ? 0.0 : it->second;
  }
};
Scrape scrape_metrics(uint16_t port);

/// Blocking loopback TCP connect with TCP_NODELAY; -1 on failure.
int connect_loopback(uint16_t port);
bool write_all(int fd, const uint8_t* a, size_t alen, const uint8_t* b, size_t blen);
/// Reads exactly `len` bytes; false on EOF/error/timeout.
bool read_exact(int fd, uint8_t* buf, size_t len, int timeout_ms);

}  // namespace perfbench
