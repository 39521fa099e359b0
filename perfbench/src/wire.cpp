#include "wire.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "stats.hpp"

extern char** environ;

namespace perfbench {

ServerProcess::ServerProcess(const std::string& binary, const std::string& workdir,
                             double timeout_s) {
  const std::string port_file = workdir + "/ports.txt";
  const std::string log_file = workdir + "/net_server.log";
  std::remove(port_file.c_str());
  std::vector<std::string> args = {binary,          "--monitor-port", "0",
                                   "--sample-ms",   "100",            "--port-file",
                                   port_file};
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 1, log_file.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
  posix_spawn_file_actions_adddup2(&fa, 1, 2);
  posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
  const int rc = posix_spawn(&pid_, binary.c_str(), &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) throw std::runtime_error("cannot spawn " + binary + ": " + std::strerror(rc));

  const uint64_t deadline = now_ns() + static_cast<uint64_t>(timeout_s * 1e9);
  for (;;) {
    if (std::FILE* f = std::fopen(port_file.c_str(), "r")) {
      unsigned tcp = 0, udp = 0, mon = 0;
      const int got = std::fscanf(f, "%u %u %u", &tcp, &udp, &mon);
      std::fclose(f);
      if (got == 3) {
        tcp_port_ = static_cast<uint16_t>(tcp);
        monitor_port_ = static_cast<uint16_t>(mon);
        return;
      }
    }
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("net_server exited during start-up (see " + log_file + ")");
    }
    if (now_ns() > deadline) {
      stop();
      throw std::runtime_error("net_server did not publish its ports in time");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

ServerProcess::~ServerProcess() { stop(); }

double ServerProcess::stop() {
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGTERM);
  int status = 0;
  rusage ru{};
  pid_t r;
  do {
    r = wait4(pid_, &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  pid_ = -1;
  if (r < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) return -1;
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

int connect_loopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool write_all(int fd, const uint8_t* a, size_t alen, const uint8_t* b, size_t blen) {
  iovec iov[2] = {{const_cast<uint8_t*>(a), alen}, {const_cast<uint8_t*>(b), blen}};
  int idx = 0;
  while (idx < 2) {
    if (iov[idx].iov_len == 0) {
      ++idx;
      continue;
    }
    const ssize_t n = ::writev(fd, iov + idx, 2 - idx);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    size_t left = static_cast<size_t>(n);
    while (idx < 2 && left >= iov[idx].iov_len) {
      left -= iov[idx].iov_len;
      iov[idx].iov_len = 0;
      ++idx;
    }
    if (idx < 2) {
      iov[idx].iov_base = static_cast<uint8_t*>(iov[idx].iov_base) + left;
      iov[idx].iov_len -= left;
    }
  }
  return true;
}

bool read_exact(int fd, uint8_t* buf, size_t len, int timeout_ms) {
  size_t off = 0;
  while (off < len) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    const ssize_t n = ::read(fd, buf + off, len - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

Scrape scrape_metrics(uint16_t port) {
  Scrape s;
  const uint64_t t0 = now_ns();
  const int fd = connect_loopback(port);
  if (fd < 0) return s;
  static const char kReq[] = "GET /metrics HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
  std::string resp;
  if (write_all(fd, reinterpret_cast<const uint8_t*>(kReq), sizeof(kReq) - 1, nullptr, 0)) {
    char buf[16384];
    for (;;) {
      pollfd pfd{fd, POLLIN, 0};
      if (::poll(&pfd, 1, 5000) <= 0) break;
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n <= 0) break;
      resp.append(buf, static_cast<size_t>(n));
    }
  }
  ::close(fd);
  s.ms = static_cast<double>(now_ns() - t0) / 1e6;
  const size_t body = resp.find("\r\n\r\n");
  if (resp.rfind("HTTP/1.0 200", 0) != 0 && resp.rfind("HTTP/1.1 200", 0) != 0) return s;
  if (body == std::string::npos) return s;
  size_t pos = body + 4;
  while (pos < resp.size()) {
    size_t eol = resp.find('\n', pos);
    if (eol == std::string::npos) eol = resp.size();
    const std::string line = resp.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    const std::string key = line.substr(0, sp);
    const double v = std::strtod(line.c_str() + sp + 1, nullptr);
    s.series[key] = v;
    s.family[key.substr(0, key.find('{'))] += v;
  }
  s.ok = true;
  return s;
}

}  // namespace perfbench
