// kqr_shardd replica processes for the fleet workload: spawn, read the
// announced port, read peak memory, stop. A replica serves until its stdin
// closes (examples/kqr_shardd.cpp), so Stop() is "close the pipe, reap".

#pragma once

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>
#include <fcntl.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_math.h"

namespace perfbench {

/// Peak resident set (VmHWM) of process `pid` ("self" for this one), MiB;
/// 0 when unreadable.
inline double PeakRssMiB(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Resets this process's VmHWM to its current RSS, so a later PeakRssMiB
/// covers serving only, not the set-up that preceded it.
inline void ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { Stop(); }

  /// Spawns `binary args...`. Does not wait for the announce line.
  bool Spawn(const std::string& binary,
             const std::vector<std::string>& args) {
    int to_child[2];
    int from_child[2];
    // CLOEXEC keeps a later sibling from inheriting this replica's stdin
    // write end, which would stop Stop() from delivering EOF.
    if (pipe2(to_child, O_CLOEXEC) != 0) return false;
    if (pipe2(from_child, O_CLOEXEC) != 0) {
      close(to_child[0]);
      close(to_child[1]);
      return false;
    }
    spawned_ns_ = NowNs();
    const pid_t pid = fork();
    if (pid < 0) {
      for (int fd : {to_child[0], to_child[1], from_child[0], from_child[1]}) {
        close(fd);
      }
      return false;
    }
    if (pid == 0) {
      dup2(to_child[0], STDIN_FILENO);
      dup2(from_child[1], STDOUT_FILENO);
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(binary.c_str()));
      for (const std::string& a : args) {
        argv.push_back(const_cast<char*>(a.c_str()));
      }
      argv.push_back(nullptr);
      execv(binary.c_str(), argv.data());
      _exit(127);
    }
    close(to_child[0]);
    close(from_child[1]);
    pid_ = pid;
    stdin_fd_ = to_child[1];
    stdout_fd_ = from_child[0];
    return true;
  }

  /// Waits (up to `timeout_ms`) for "KQR_SHARDD LISTENING <port>".
  bool AwaitListening(int timeout_ms) {
    std::string line;
    const int64_t give_up = NowNs() + int64_t{timeout_ms} * 1000000;
    while (line.size() < 256) {
      const int64_t left_ms = (give_up - NowNs()) / 1000000;
      if (left_ms <= 0) return false;
      pollfd p{stdout_fd_, POLLIN, 0};
      if (poll(&p, 1, static_cast<int>(left_ms)) <= 0) return false;
      char c = 0;
      if (read(stdout_fd_, &c, 1) != 1) return false;
      if (c == '\n') break;
      line.push_back(c);
    }
    ready_ns_ = NowNs();
    unsigned port = 0;
    if (std::sscanf(line.c_str(), "KQR_SHARDD LISTENING %u", &port) != 1 ||
        port == 0 || port > 65535) {
      return false;
    }
    port_ = static_cast<uint16_t>(port);
    return true;
  }

  uint16_t port() const { return port_; }
  double ready_ms() const { return (ready_ns_ - spawned_ns_) / 1e6; }
  double PeakRss() const { return PeakRssMiB(std::to_string(pid_)); }

  void Stop() {
    for (int* fd : {&stdin_fd_, &stdout_fd_}) {
      if (*fd >= 0) close(*fd);
      *fd = -1;
    }
    if (pid_ > 0) {
      int wstatus = 0;
      waitpid(pid_, &wstatus, 0);
      pid_ = -1;
    }
  }

 private:
  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
  int64_t spawned_ns_ = 0;
  int64_t ready_ns_ = 0;
};

/// Value of counter `name` in a shard's Stats JSON; 0 when absent.
inline uint64_t CounterIn(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const size_t at = json.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(json.c_str() + at + key.size(), nullptr, 10);
}

}  // namespace perfbench
