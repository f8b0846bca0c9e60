// Measurement helpers shared by the three workload paths: clocks and
// order statistics, the host-speed probe, process resource readers, child
// process control, and the in-memory span tracer of the traced runs.
#ifndef OTFAIR_PERFBENCH_BENCH_UTIL_H_
#define OTFAIR_PERFBENCH_BENCH_UTIL_H_

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady clock).
int64_t NowNs();
/// CPU time of the whole process (all threads), nanoseconds.
int64_t ProcessCpuNs();

/// Order statistics over a copy of `values`; NaN when empty. Quantile
/// uses linear interpolation between closest ranks.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) { return Quantile(values, 0.5); }

/// Fixed exp() kernel of the benchmark's own (1.3-2.5 ms on the 4-vCPU
/// KVM host, depending on its phase): sampled between iterations so a run
/// taken in a slow host phase shows. It never rescales a measured metric.
double HostProbeMs();

/// Pins the calling thread to the `slot`-th CPU (modulo their count) of
/// those it may run on.
void PinToCpu(size_t slot);

/// One SCHED_IDLE thread per allowed CPU, each pinned and spinning while
/// this object lives. The kernel runs them only when a CPU would
/// otherwise go idle and preempts them at once for any other thread, so
/// they take no time from the program; they keep idle vCPUs from halting
/// into the hypervisor, whose wake-up latency swings with the host's load
/// (the user-space form of booting with idle=poll).
class IdleSpinners {
 public:
  IdleSpinners();
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Peak resident set (VmHWM) of `pid` (0: this process), in MB; NaN when
/// it cannot be read.
double PeakRssMb(pid_t pid = 0);
/// utime + stime of `pid` from /proc/<pid>/stat, nanoseconds; -1 on error.
int64_t ChildCpuNs(pid_t pid);

/// A started child process with optional pipes to its stdout/stderr.
struct Child {
  pid_t pid = -1;
  int out_fd = -1;  // child's stdout, when requested
  int err_fd = -1;  // child's stderr, when requested
};
/// Starts `argv` (argv[0] is a path). Pipes stdout/stderr when asked;
/// otherwise they are inherited, except that a child's stdout is always
/// redirected to this process's stderr so the result line stays last.
Child Spawn(const std::vector<std::string>& argv, bool pipe_out, bool pipe_err);
/// Waits for the child, closing its pipes; returns its exit code, or
/// 128 + signal when it was killed.
int WaitChild(Child* child);
/// Reads the rest of `fd` into a string (blocking).
std::string ReadAll(int fd);

/// One timed region around a call into the program.
struct SpanRecord {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  // index into the same tracer, -1 for a root span
};

/// Single-thread span recorder: spans live in memory until the run ends.
/// Each thread that records spans owns its own Tracer. When disabled, a
/// span costs one branch, which is how untraced iterations run the same
/// code as traced ones.
class Tracer {
 public:
  explicit Tracer(uint32_t tid = 0) : tid_(tid) {}
  bool enabled = false;
  int32_t Begin(const char* name);
  void End(int32_t index);
  const std::vector<SpanRecord>& spans() const { return spans_; }
  uint32_t tid() const { return tid_; }
  /// Drops recorded spans (keeps `enabled`).
  void Clear() { spans_.clear(); stack_.clear(); }

 private:
  uint32_t tid_;
  std::vector<SpanRecord> spans_;
  std::vector<int32_t> stack_;
};

class Span {
 public:
  Span(Tracer& tracer, const char* name)
      : tracer_(tracer), index_(tracer.enabled ? tracer.Begin(name) : -1) {}
  ~Span() {
    if (index_ >= 0) tracer_.End(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int32_t index_;
};

/// Self time per span name (duration minus the part covered by direct
/// children), summed over the spans whose index lies in [from, spans.size()).
std::map<std::string, double> SelfMsByName(const std::vector<SpanRecord>& spans, size_t from);

/// Writes every tracer's spans as a Chrome/Perfetto trace (JSON array of
/// complete events). Returns false on I/O failure.
bool WriteChromeTrace(const std::string& path, const std::vector<const Tracer*>& tracers);

}  // namespace perfbench

#endif  // OTFAIR_PERFBENCH_BENCH_UTIL_H_
