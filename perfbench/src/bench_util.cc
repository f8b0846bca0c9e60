#include "bench_util.h"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

extern char** environ;

namespace perfbench {

int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double HostProbeMs() {
  static volatile double sink = 0.0;
  const int64_t start = NowNs();
  double acc = 0.0;
  double x = 0.0;
  for (int i = 0; i < 200000; ++i) {
    acc += std::exp(-x);
    x += 1e-5;
  }
  sink = sink + acc;
  return static_cast<double>(NowNs() - start) / 1e6;
}

void PinToCpu(size_t slot) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  const int count = CPU_COUNT(&allowed);
  if (count == 0) return;
  int wanted = static_cast<int>(slot % static_cast<size_t>(count));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || wanted-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
    return;
  }
}

IdleSpinners::IdleSpinners() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int slot = 0; slot < CPU_COUNT(&allowed); ++slot)
    threads_.emplace_back([this, slot] {
      PinToCpu(static_cast<size_t>(slot));
      sched_param param{};
      if (sched_setscheduler(0, SCHED_IDLE, &param) != 0) return;
      while (!stop_.load(std::memory_order_relaxed)) {
      }
    });
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true);
  for (std::thread& thread : threads_) thread.join();
}

double PeakRssMb(pid_t pid) {
  const std::string path =
      pid == 0 ? std::string("/proc/self/status") : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

int64_t ChildCpuNs(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  // The command name (field 2) may hold spaces; fields resume after ')'.
  const size_t close = text.rfind(')');
  if (close == std::string::npos) return -1;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  const long ticks = sysconf(_SC_CLK_TCK);
  return static_cast<int64_t>((utime + stime) * (1000000000ULL / static_cast<unsigned long long>(ticks)));
}

Child Spawn(const std::vector<std::string>& argv, bool pipe_out, bool pipe_err) {
  Child child;
  int out_pipe[2] = {-1, -1};
  int err_pipe[2] = {-1, -1};
  if (pipe_out && pipe2(out_pipe, O_CLOEXEC) != 0) return child;
  if (pipe_err && pipe2(err_pipe, O_CLOEXEC) != 0) return child;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  if (pipe_out) {
    posix_spawn_file_actions_adddup2(&actions, out_pipe[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, out_pipe[0]);
    posix_spawn_file_actions_addclose(&actions, out_pipe[1]);
  } else {
    posix_spawn_file_actions_adddup2(&actions, STDERR_FILENO, STDOUT_FILENO);
  }
  if (pipe_err) {
    posix_spawn_file_actions_adddup2(&actions, err_pipe[1], STDERR_FILENO);
    posix_spawn_file_actions_addclose(&actions, err_pipe[0]);
    posix_spawn_file_actions_addclose(&actions, err_pipe[1]);
  }
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (pipe_out) close(out_pipe[1]);
  if (pipe_err) close(err_pipe[1]);
  if (rc != 0) {
    if (pipe_out) close(out_pipe[0]);
    if (pipe_err) close(err_pipe[0]);
    return child;
  }
  child.pid = pid;
  child.out_fd = pipe_out ? out_pipe[0] : -1;
  child.err_fd = pipe_err ? err_pipe[0] : -1;
  return child;
}

int WaitChild(Child* child) {
  if (child->out_fd >= 0) close(child->out_fd);
  if (child->err_fd >= 0) close(child->err_fd);
  child->out_fd = child->err_fd = -1;
  if (child->pid <= 0) return -1;
  int status = 0;
  while (waitpid(child->pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  child->pid = -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

std::string ReadAll(int fd) {
  std::string text;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n > 0) {
      text.append(buf, static_cast<size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  return text;
}

int32_t Tracer::Begin(const char* name) {
  const int32_t index = static_cast<int32_t>(spans_.size());
  spans_.push_back({name, NowNs(), 0, stack_.empty() ? -1 : stack_.back()});
  stack_.push_back(index);
  return index;
}

void Tracer::End(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  stack_.pop_back();
}

std::map<std::string, double> SelfMsByName(const std::vector<SpanRecord>& spans, size_t from) {
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (size_t i = from; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    if (span.parent >= 0) child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
  }
  std::map<std::string, double> self_ms;
  for (size_t i = from; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    self_ms[span.name] += static_cast<double>(span.end_ns - span.start_ns - child_ns[i]) / 1e6;
  }
  return self_ms;
}

bool WriteChromeTrace(const std::string& path, const std::vector<const Tracer*>& tracers) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  int64_t origin = std::numeric_limits<int64_t>::max();
  for (const Tracer* tracer : tracers)
    for (const SpanRecord& span : tracer->spans()) origin = std::min(origin, span.start_ns);
  std::fputs("[", file);
  bool first = true;
  for (const Tracer* tracer : tracers) {
    for (const SpanRecord& span : tracer->spans()) {
      std::fprintf(file, "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f}",
                   first ? "" : ",", span.name, tracer->tid(),
                   static_cast<double>(span.start_ns - origin) / 1e3,
                   static_cast<double>(span.end_ns - span.start_ns) / 1e3);
      first = false;
    }
  }
  std::fputs("\n]\n", file);
  return std::fclose(file) == 0;
}

}  // namespace perfbench
