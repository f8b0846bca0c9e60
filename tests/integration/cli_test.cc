// End-to-end test of the otfair CLI binary: exercises design -> inspect ->
// repair -> drift over real files, via std::system. The binary path is
// injected by CMake (OTFAIR_CLI_PATH).

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/simd.h"
#include "data/adult_like.h"
#include "data/csv.h"
#include "fairness/emetric.h"
#include "net/socket.h"
#include "sim/gaussian_mixture.h"

#ifndef OTFAIR_CLI_PATH
#define OTFAIR_CLI_PATH "./tools/otfair"
#endif
#ifndef OTFAIR_GOLDEN_DIR
#error "build must define OTFAIR_GOLDEN_DIR"
#endif

namespace otfair {
namespace {

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per-process fixture paths: gtest_discover_tests runs every
    // TEST as its own ctest entry, so under `ctest -j` several CliTest
    // processes are alive at once and must not clobber each other's
    // files in the shared TempDir.
    dir_ = ::testing::TempDir() + "/otfair_cli_" + std::to_string(::getpid());
    ASSERT_EQ(std::system(("mkdir -p " + dir_).c_str()), 0);
    common::Rng rng(1);
    auto research = sim::SimulateGaussianMixture(
        800, sim::GaussianSimConfig::PaperDefault(), rng);
    auto archive = sim::SimulateGaussianMixture(
        3000, sim::GaussianSimConfig::PaperDefault(), rng);
    ASSERT_TRUE(research.ok() && archive.ok());
    research_path_ = dir_ + "/research.csv";
    archive_path_ = dir_ + "/archive.csv";
    plan_path_ = dir_ + "/plan.bin";
    repaired_path_ = dir_ + "/repaired.csv";
    ASSERT_TRUE(data::WriteCsv(*research, research_path_).ok());
    ASSERT_TRUE(data::WriteCsv(*archive, archive_path_).ok());
  }

  void TearDown() override {
    StopTcpServe();
    // Fixtures are per-pid (see SetUp); remove them so repeated ctest
    // runs don't accumulate garbage in the shared temp dir.
    if (!dir_.empty()) std::system(("rm -rf " + dir_).c_str());
  }

  /// Starts `serve --listen=0` on the designed plan in the background and
  /// returns the bound port (0 on failure). StopTcpServe / TearDown kill it.
  int StartTcpServe(const std::string& extra_flags = "") {
    const std::string port_file = dir_ + "/serve_port.txt";
    pid_file_ = dir_ + "/serve_pid.txt";
    std::remove(port_file.c_str());
    const std::string command = std::string(OTFAIR_CLI_PATH) + " serve --plan=" +
                                plan_path_ + " --listen=0 --port-file=" + port_file +
                                " " + extra_flags + " > /dev/null 2>&1 & echo $! > " +
                                pid_file_;
    if (std::system(command.c_str()) != 0) return 0;
    for (int i = 0; i < 200; ++i) {  // up to 10 s for design + bind
      if (std::FILE* f = std::fopen(port_file.c_str(), "r")) {
        int port = 0;
        const bool got = std::fscanf(f, "%d", &port) == 1 && port > 0;
        std::fclose(f);
        if (got) return port;
      }
      ::usleep(50 * 1000);
    }
    return 0;
  }

  void StopTcpServe() {
    if (pid_file_.empty()) return;
    std::system(("kill -TERM $(cat " + pid_file_ + ") > /dev/null 2>&1").c_str());
    pid_file_.clear();
  }

  int Run(const std::string& args) {
    const std::string command =
        std::string(OTFAIR_CLI_PATH) + " " + args + " > /dev/null 2>&1";
    const int status = std::system(command.c_str());
    return WEXITSTATUS(status);
  }

  /// Runs the CLI and captures stdout (stderr discarded unless
  /// `discard_stderr` is false); exit code via `exit_code`.
  std::string RunCapture(const std::string& args, int* exit_code = nullptr,
                         bool discard_stderr = true) {
    const std::string command = std::string(OTFAIR_CLI_PATH) + " " + args +
                                (discard_stderr ? " 2> /dev/null" : "");
    std::FILE* pipe = ::popen(command.c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    if (pipe == nullptr) {
      if (exit_code != nullptr) *exit_code = -1;
      return "";
    }
    std::string output;
    char buffer[4096];
    size_t n;
    while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) output.append(buffer, n);
    const int status = ::pclose(pipe);
    if (exit_code != nullptr) *exit_code = WEXITSTATUS(status);
    return output;
  }

  /// Runs the CLI and captures stderr (stdout discarded); exit code via
  /// `exit_code`.
  std::string RunCaptureStderr(const std::string& args, int* exit_code) {
    return RunCapture(args + " 2>&1 > /dev/null", exit_code, /*discard_stderr=*/false);
  }

  std::string dir_;
  std::string research_path_;
  std::string archive_path_;
  std::string plan_path_;
  std::string repaired_path_;
  std::string pid_file_;
};

/// Blocking one-connection exchange against a TCP serve: sends `payload`,
/// half-closes, and returns everything the server wrote until EOF.
std::string TcpExchange(int port, const std::string& payload) {
  auto sock = net::ConnectTcp("127.0.0.1", static_cast<uint16_t>(port));
  EXPECT_TRUE(sock.ok()) << sock.status().message();
  if (!sock.ok()) return "";
  timeval tv{30, 0};
  ::setsockopt(sock->fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  size_t off = 0;
  while (off < payload.size()) {
    const ssize_t n =
        ::send(sock->fd(), payload.data() + off, payload.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      ADD_FAILURE() << "send failed: " << std::strerror(errno);
      return "";
    }
    off += static_cast<size_t>(n);
  }
  ::shutdown(sock->fd(), SHUT_WR);
  std::string out;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(sock->fd(), buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  return out;
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return "";
  std::string content;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  return content;
}

/// The non-JSON response lines of a serve transcript (`ok ...` and
/// `err ...`), sorted: front ends may interleave repair responses and
/// control answers differently, but must produce the same set of bytes.
std::vector<std::string> SortedNonJsonLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t nl = text.find('\n', start);
    if (nl == std::string::npos) nl = text.size();
    const std::string line = text.substr(start, nl - start);
    if (!line.empty() && line[0] != '{') lines.push_back(line);
    start = nl + 1;
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

TEST_F(CliTest, FullWorkflow) {
  // design
  ASSERT_EQ(Run("design --research=" + research_path_ + " --plan=" + plan_path_ +
                " --n_q=40"),
            0);
  // inspect plan and data
  EXPECT_EQ(Run("inspect --plan=" + plan_path_), 0);
  EXPECT_EQ(Run("inspect --data=" + archive_path_), 0);
  // repair (stochastic)
  ASSERT_EQ(Run("repair --plan=" + plan_path_ + " --input=" + archive_path_ +
                " --output=" + repaired_path_ + " --seed=9"),
            0);
  auto archive = data::ReadCsv(archive_path_);
  auto repaired = data::ReadCsv(repaired_path_);
  ASSERT_TRUE(archive.ok() && repaired.ok());
  EXPECT_EQ(repaired->size(), archive->size());
  auto e_before = fairness::AggregateE(*archive);
  auto e_after = fairness::AggregateE(*repaired);
  ASSERT_TRUE(e_before.ok() && e_after.ok());
  EXPECT_LT(*e_after, *e_before / 3.0);
}

TEST_F(CliTest, EverySolverBackendReachable) {
  // Each built-in backend designs a working plan through --solver, and
  // the repaired archive comes out fairer regardless of the backend.
  // Plan bytes are pinned by each file's trailing CRC32, one pin per
  // backend: no plan depends on the kernel table.
  const std::string isa = common::simd::ActiveIsa();
  const std::map<std::string, uint32_t> pinned_crc = {
      {"monotone", 0x5e9c4eb9u},
      {"exact", 0x4f1c1764u},
      {"sinkhorn", 0xa21a619bu},
  };
  for (const std::string solver : {"monotone", "exact", "sinkhorn"}) {
    const std::string plan = dir_ + "/plan_" + solver + ".bin";
    const std::string out = dir_ + "/repaired_" + solver + ".csv";
    ASSERT_EQ(Run("design --research=" + research_path_ + " --plan=" + plan +
                  " --n_q=30 --solver=" + solver + " --epsilon=0.1"),
              0)
        << solver;
    const std::string bytes = ReadFileOrEmpty(plan);
    ASSERT_GE(bytes.size(), sizeof(uint32_t)) << solver;
    uint32_t crc = 0;
    std::memcpy(&crc, bytes.data() + bytes.size() - sizeof(crc), sizeof(crc));
    EXPECT_EQ(crc, pinned_crc.at(solver))
        << solver << " on the " << isa << " table: 0x" << std::hex << crc;
    ASSERT_EQ(Run("repair --plan=" + plan + " --input=" + archive_path_ +
                  " --output=" + out + " --seed=11"),
              0)
        << solver;
    auto archive = data::ReadCsv(archive_path_);
    auto repaired = data::ReadCsv(out);
    ASSERT_TRUE(archive.ok() && repaired.ok());
    auto e_before = fairness::AggregateE(*archive);
    auto e_after = fairness::AggregateE(*repaired);
    ASSERT_TRUE(e_before.ok() && e_after.ok());
    EXPECT_LT(*e_after, *e_before / 2.0) << solver;
  }
  // Unknown backends fail with a clean error, not a crash.
  EXPECT_EQ(Run("design --research=" + research_path_ + " --plan=" + plan_path_ +
                " --solver=does-not-exist"),
            1);
}

TEST_F(CliTest, QuantileModeRepairs) {
  ASSERT_EQ(Run("design --research=" + research_path_ + " --plan=" + plan_path_), 0);
  ASSERT_EQ(Run("repair --plan=" + plan_path_ + " --input=" + archive_path_ +
                " --output=" + repaired_path_ + " --mode=quantile"),
            0);
  auto archive = data::ReadCsv(archive_path_);
  auto repaired = data::ReadCsv(repaired_path_);
  ASSERT_TRUE(archive.ok() && repaired.ok());
  auto e_before = fairness::AggregateE(*archive);
  auto e_after = fairness::AggregateE(*repaired);
  ASSERT_TRUE(e_before.ok() && e_after.ok());
  EXPECT_LT(*e_after, *e_before / 3.0);
}

TEST_F(CliTest, EstimatedLabelsMode) {
  ASSERT_EQ(Run("design --research=" + research_path_ + " --plan=" + plan_path_), 0);
  EXPECT_EQ(Run("repair --plan=" + plan_path_ + " --input=" + archive_path_ +
                " --output=" + repaired_path_ +
                " --estimate_labels --research=" + research_path_),
            0);
}

TEST_F(CliTest, DriftExitCodes) {
  ASSERT_EQ(Run("design --research=" + research_path_ + " --plan=" + plan_path_), 0);
  // Stationary archive: exit 0.
  EXPECT_EQ(Run("drift --plan=" + plan_path_ + " --input=" + archive_path_), 0);
  // Shifted archive: exit 3 (the drift signal).
  common::Rng rng(2);
  sim::GaussianSimConfig shifted = sim::GaussianSimConfig::PaperDefault();
  for (int u = 0; u <= 1; ++u)
    for (int s = 0; s <= 1; ++s) shifted.mean[u][s][0] += 2.0;
  auto drifted = sim::SimulateGaussianMixture(3000, shifted, rng);
  ASSERT_TRUE(drifted.ok());
  const std::string drifted_path = dir_ + "/drifted.csv";
  ASSERT_TRUE(data::WriteCsv(*drifted, drifted_path).ok());
  EXPECT_EQ(Run("drift --plan=" + plan_path_ + " --input=" + drifted_path), 3);
  // A multi-group archive against a binary plan is an operational error
  // (exit 1), not a crash.
  const std::string multi_path = dir_ + "/drift_multi.csv";
  ASSERT_EQ(Run("simulate --out=" + multi_path + " --rows=500 --seed=7 --s-levels=4"), 0);
  EXPECT_EQ(Run("drift --plan=" + plan_path_ + " --input=" + multi_path), 1);
}

TEST_F(CliTest, BadInvocationsFailCleanly) {
  EXPECT_EQ(Run(""), 2);
  EXPECT_EQ(Run("unknown-command"), 2);
  EXPECT_EQ(Run("design --research=/nonexistent.csv --plan=" + plan_path_), 1);
  EXPECT_EQ(Run("repair --plan=/nonexistent.bin --input=" + archive_path_ +
                " --output=" + repaired_path_),
            1);
  ASSERT_EQ(Run("design --research=" + research_path_ + " --plan=" + plan_path_), 0);
  EXPECT_EQ(Run("repair --plan=" + plan_path_ + " --input=" + archive_path_ +
                " --output=" + repaired_path_ + " --mode=bogus"),
            2);
}

TEST_F(CliTest, RepairRejectsNonFiniteArchiveCells) {
  ASSERT_EQ(Run("design --research=" + research_path_ + " --plan=" + plan_path_), 0);
  const std::string bad_path = dir_ + "/non_finite.csv";
  for (const std::string cell : {"nan", "-inf", "1e400"}) {
    std::FILE* f = std::fopen(bad_path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "s,u,x1,x2\n0,1,0.5,1.5\n1,0,%s,0.25\n", cell.c_str());
    std::fclose(f);
    std::remove(repaired_path_.c_str());
    EXPECT_EQ(Run("repair --plan=" + plan_path_ + " --input=" + bad_path +
                  " --output=" + repaired_path_),
              1)
        << cell;
    EXPECT_EQ(ReadFileOrEmpty(repaired_path_), "") << cell;
  }
}

TEST_F(CliTest, UsageAndPerCommandHelp) {
  // Top-level help exits 0 and lists every subcommand.
  int exit_code = -1;
  const std::string usage = RunCapture("--help", &exit_code);
  EXPECT_EQ(exit_code, 0);
  for (const std::string command :
       {"design", "repair", "serve", "inspect", "drift", "simulate"}) {
    EXPECT_NE(usage.find(command), std::string::npos) << command;
  }
  // Per-command --help exits 0 and names the command's flags.
  const std::string serve_help = RunCapture("serve --help", &exit_code);
  EXPECT_EQ(exit_code, 0);
  EXPECT_NE(serve_help.find("--replay"), std::string::npos);
  EXPECT_NE(serve_help.find("--max_batch"), std::string::npos);
  EXPECT_EQ(RunCapture("design --help", &exit_code).find("usage: otfair design"), 0u);
  EXPECT_EQ(exit_code, 0);
  // Unknown commands and missing required flags exit 2.
  EXPECT_EQ(Run("not-a-command"), 2);
  EXPECT_EQ(Run("serve"), 2);
  EXPECT_EQ(Run("simulate"), 2);
}

TEST_F(CliTest, JsonOutputs) {
  ASSERT_EQ(Run("design --research=" + research_path_ + " --plan=" + plan_path_ +
                " --n_q=40"),
            0);
  int exit_code = -1;
  const std::string plan_json =
      RunCapture("inspect --plan=" + plan_path_ + " --json", &exit_code);
  EXPECT_EQ(exit_code, 0);
  EXPECT_EQ(plan_json.front(), '{');
  EXPECT_NE(plan_json.find("\"kind\":\"plan\""), std::string::npos);
  EXPECT_NE(plan_json.find("\"channels\":["), std::string::npos);
  EXPECT_NE(plan_json.find("\"nnz\":"), std::string::npos);
  // Bench harnesses record which vector ISA actually ran from this key.
  EXPECT_NE(plan_json.find("\"simd_isa\":\""), std::string::npos);

  const std::string data_json =
      RunCapture("inspect --data=" + archive_path_ + " --json", &exit_code);
  EXPECT_EQ(exit_code, 0);
  EXPECT_NE(data_json.find("\"kind\":\"data\""), std::string::npos);
  EXPECT_NE(data_json.find("\"e_aggregate\":"), std::string::npos);

  // --no-simd forces the scalar table and the JSON reports it.
  const std::string scalar_json =
      RunCapture("inspect --plan=" + plan_path_ + " --json --no-simd", &exit_code);
  EXPECT_EQ(exit_code, 0);
  EXPECT_NE(scalar_json.find("\"simd_isa\":\"scalar\""), std::string::npos);

  const std::string drift_json = RunCapture(
      "drift --plan=" + plan_path_ + " --input=" + archive_path_ + " --json", &exit_code);
  EXPECT_EQ(exit_code, 0);  // stationary stream
  EXPECT_NE(drift_json.find("\"drifted\":false"), std::string::npos);
  EXPECT_NE(drift_json.find("\"worst_w1\":"), std::string::npos);
}

TEST_F(CliTest, SimulateGeneratesLoadableData) {
  const std::string sim_path = dir_ + "/sim.csv";
  ASSERT_EQ(Run("simulate --out=" + sim_path + " --rows=600 --seed=5"), 0);
  auto dataset = data::ReadCsv(sim_path);
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ(dataset->size(), 600u);
  EXPECT_EQ(dataset->dim(), 2u);
  // The generated data designs a working plan.
  EXPECT_EQ(Run("design --research=" + sim_path + " --plan=" + dir_ + "/sim_plan.bin" +
                " --n_q=30"),
            0);
}

TEST_F(CliTest, ServeReplayHealthyAndDriftedExits) {
  ASSERT_EQ(Run("design --research=" + research_path_ + " --plan=" + plan_path_ +
                " --n_q=40"),
            0);
  // Stationary replay: exit 0, JSON metrics + health on stdout.
  int exit_code = -1;
  const std::string output = RunCapture("serve --plan=" + plan_path_ + " --replay=" +
                                            archive_path_ + " --sessions=2 --max_batch=64",
                                        &exit_code);
  EXPECT_EQ(exit_code, 0);
  EXPECT_NE(output.find("\"rows_repaired\":6000"), std::string::npos) << output;
  EXPECT_NE(output.find("\"healthy\":true"), std::string::npos) << output;
  // Drifted replay: exit 3.
  const std::string drifted_path = dir_ + "/serve_drifted.csv";
  ASSERT_EQ(Run("simulate --out=" + drifted_path + " --rows=3000 --seed=6 --shift=2.5"),
            0);
  EXPECT_EQ(Run("serve --plan=" + plan_path_ + " --replay=" + drifted_path +
                " --sessions=1"),
            3);
}

TEST_F(CliTest, ServeRecoverSkipsVersionOneCheckpointAndColdStarts) {
  ASSERT_EQ(Run("design --research=" + research_path_ + " --plan=" + plan_path_ +
                " --n_q=40"),
            0);
  // checkpoint_v1.otcp is a checkpoint in the previous format (version 1:
  // drift histograms and a sketch cadence beside the sketches). Recovery
  // skips it like any unsupported version and cold-starts from --plan.
  const std::string ckpt_dir = dir_ + "/ckpt_v1";
  ASSERT_EQ(std::system(("mkdir -p " + ckpt_dir + " && cp " + OTFAIR_GOLDEN_DIR +
                         "/checkpoint_v1.otcp " + ckpt_dir +
                         "/checkpoint-00000000000000000001.otcp")
                            .c_str()),
            0);
  const std::string serve = "serve --recover --checkpoint_dir=" + ckpt_dir +
                            " --plan=" + plan_path_ + " --replay=" + archive_path_;
  int exit_code = -1;
  std::string err = RunCaptureStderr(serve, &exit_code);
  EXPECT_EQ(exit_code, 0) << err;
  EXPECT_NE(err.find("unsupported checkpoint version"), std::string::npos) << err;
  EXPECT_NE(err.find("cold-starting from " + plan_path_), std::string::npos) << err;
  // The cold-started server's final checkpoint (version 2) replaced it and
  // recovers.
  err = RunCaptureStderr(serve, &exit_code);
  EXPECT_EQ(exit_code, 0) << err;
  EXPECT_NE(err.find("recovered checkpoint generation 1"), std::string::npos) << err;
}

TEST_F(CliTest, ServeReplayInputErrorsExitOneUnderPromDump) {
  ASSERT_EQ(Run("design --research=" + research_path_ + " --plan=" + plan_path_ +
                " --n_q=40"),
            0);
  // The replay inputs are checked before the Prometheus dump thread (or
  // any other background thread) starts, so each bad input is a clean
  // exit 1 with its error line, never an abort.
  const std::string wide_path = dir_ + "/wide.csv";  // dim 3 against a dim-2 plan
  std::FILE* f = std::fopen(wide_path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("s,u,x1,x2,x3\n0,0,0.1,0.2,0.3\n0,1,0.4,0.5,0.6\n1,0,0.7,0.8,0.9\n"
             "1,1,1.0,1.1,1.2\n",
             f);
  std::fclose(f);
  const struct {
    std::string replay_flags;
    const char* error;
  } cases[] = {
      {"--replay=" + dir_ + "/missing.csv", "IO_ERROR"},
      {"--replay=" + archive_path_ + " --sessions=0", "--sessions must be >= 1"},
      {"--replay=" + wide_path, "dimensionality mismatch"},
  };
  for (const auto& c : cases) {
    int exit_code = -1;
    const std::string err = RunCaptureStderr(
        "serve --plan=" + plan_path_ + " --prom-dump=" + dir_ + "/serve.prom " + c.replay_flags,
        &exit_code);
    EXPECT_EQ(exit_code, 1) << err;
    EXPECT_NE(err.find(c.error), std::string::npos) << err;
    EXPECT_EQ(err.find("terminate"), std::string::npos) << err;
  }
}

TEST_F(CliTest, ServeStdioAnswersBeforeEof) {
  ASSERT_EQ(Run("design --research=" + research_path_ + " --plan=" + plan_path_ +
                " --n_q=40"),
            0);
  // stdin is a FIFO the test keeps open, so the server never sees EOF:
  // it must answer what it has read before it blocks on stdin again.
  const std::string fifo_path = dir_ + "/serve_stdin.fifo";
  ASSERT_EQ(::mkfifo(fifo_path.c_str(), 0600), 0) << std::strerror(errno);
  int out_pipe[2];
  ASSERT_EQ(::pipe(out_pipe), 0);
  const std::string plan_flag = "--plan=" + plan_path_;
  const char* const argv[] = {OTFAIR_CLI_PATH, "serve", plan_flag.c_str(), nullptr};
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const int in = ::open(fifo_path.c_str(), O_RDONLY);
    const int null = ::open("/dev/null", O_WRONLY);
    if (in < 0 || null < 0) ::_exit(127);
    ::dup2(in, STDIN_FILENO);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::dup2(null, STDERR_FILENO);
    ::close(out_pipe[0]);
    ::execv(argv[0], const_cast<char* const*>(argv));
    ::_exit(127);
  }
  ::close(out_pipe[1]);
  const int fifo = ::open(fifo_path.c_str(), O_WRONLY);
  ASSERT_GE(fifo, 0) << std::strerror(errno);
  auto send = [&](const std::string& text) {
    ASSERT_EQ(::write(fifo, text.data(), text.size()), static_cast<ssize_t>(text.size()));
  };
  send("repair 0 0 0 1 0.5 -0.5\nhealth\n");

  // Both answers must arrive while stdin is still open (in either order:
  // a control verb is answered at once, rows when the read is flushed).
  std::string output;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::count(output.begin(), output.end(), '\n') < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    pollfd readable{out_pipe[0], POLLIN, 0};
    if (::poll(&readable, 1, 100) <= 0) continue;
    char buf[4096];
    const ssize_t n = ::read(out_pipe[0], buf, sizeof(buf));
    if (n <= 0) break;
    output.append(buf, static_cast<size_t>(n));
  }
  EXPECT_NE(output.find("ok 0 0 "), std::string::npos) << output;
  EXPECT_NE(output.find("\"plan_version\":1"), std::string::npos) << output;

  send("quit\n");
  ::close(fifo);
  char buf[4096];
  while (::read(out_pipe[0], buf, sizeof(buf)) > 0) {
  }
  ::close(out_pipe[0]);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST_F(CliTest, ServeStdioProtocolRoundTrip) {
  ASSERT_EQ(Run("design --research=" + research_path_ + " --plan=" + plan_path_ +
                " --n_q=40"),
            0);
  const std::string input_path = dir_ + "/serve_input.txt";
  std::FILE* f = std::fopen(input_path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs(
      "repair 0 0 0 1 0.5 -0.5\n"
      "health\n"
      "bogus-verb\n"
      "quit\n",
      f);
  std::fclose(f);
  int exit_code = -1;
  const std::string output = RunCapture(
      "serve --plan=" + plan_path_ + " < " + input_path, &exit_code);
  EXPECT_EQ(exit_code, 0);
  EXPECT_NE(output.find("ok 0 0 "), std::string::npos) << output;
  EXPECT_NE(output.find("\"plan_version\":1"), std::string::npos) << output;
  EXPECT_NE(output.find("err - - INVALID_ARGUMENT"), std::string::npos) << output;
}

TEST_F(CliTest, ServeStdioRefusedRowsKeepTheirIdentity) {
  // A repair line whose session and row parse is answered as that row even
  // when its u or a feature is refused (|U| = 2 here), so a client matching
  // responses by (session, row) knows which request failed; a line with the
  // wrong field count names no row.
  ASSERT_EQ(Run("design --research=" + research_path_ + " --plan=" + plan_path_ +
                " --n_q=40"),
            0);
  const std::string input_path = dir_ + "/serve_refused.txt";
  std::FILE* f = std::fopen(input_path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs(
      "repair 1 1 5 0 0.1 0.2\n"
      "repair 1 5 0 0 nan 0.2\n"
      "repair 1 6 0 0 0.1\n",
      f);
  std::fclose(f);
  int exit_code = -1;
  const std::string output =
      RunCapture("serve --plan=" + plan_path_ + " < " + input_path, &exit_code);
  EXPECT_EQ(exit_code, 0);
  const std::vector<std::string> lines = SortedNonJsonLines(output);
  ASSERT_EQ(lines.size(), 3u) << output;
  EXPECT_EQ(lines[0].rfind("err - - INVALID_ARGUMENT ", 0), 0u) << lines[0];
  EXPECT_EQ(lines[1].rfind("err 1 1 INVALID_ARGUMENT ", 0), 0u) << lines[1];
  EXPECT_EQ(lines[2].rfind("err 1 5 INVALID_ARGUMENT ", 0), 0u) << lines[2];
}

TEST_F(CliTest, ServeListenAndReplayAreMutuallyExclusive) {
  ASSERT_EQ(Run("design --research=" + research_path_ + " --plan=" + plan_path_ +
                " --n_q=40"),
            0);
  EXPECT_EQ(Run("serve --plan=" + plan_path_ + " --listen=0 --replay=" + archive_path_),
            2);
  // Loadgen without a port is the same class of usage error.
  EXPECT_EQ(Run("loadgen"), 2);
}

TEST_F(CliTest, InspectJsonReportsNetworkServing) {
  ASSERT_EQ(Run("design --research=" + research_path_ + " --plan=" + plan_path_ +
                " --n_q=40"),
            0);
  int exit_code = -1;
  const std::string json =
      RunCapture("inspect --plan=" + plan_path_ + " --json", &exit_code);
  EXPECT_EQ(exit_code, 0);
  EXPECT_NE(json.find("\"net_available\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"net_listen\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"line_cap_bytes\":65536"), std::string::npos) << json;
}

TEST_F(CliTest, ServeTcpMatchesStdioServeByteForByte) {
  ASSERT_EQ(Run("design --research=" + research_path_ + " --plan=" + plan_path_ +
                " --n_q=40"),
            0);
  // The same request stream through both front ends. Values are arbitrary;
  // both paths parse the identical bytes, so the %.17g responses must be
  // byte-identical line for line. The control verbs whose answers are
  // deterministic ride along: a reload to the same plan (repairs are
  // unchanged by it), a reload of a missing file, a reload with no path,
  // and a checkpoint with checkpointing disabled.
  const std::vector<std::string> requests = {
      "repair 0 0 0 1 0.5 -0.5",
      "repair 3 0 1 0 1.25 0.75",
      "repair 0 1 0 0 -2.5 0.125",
      "reload " + plan_path_,
      "repair 3 1 1 1 3.5 -1.75",
      "reload " + dir_ + "/no_such_plan.bin",
      "reload",
      "checkpoint",
      "repair 0 2 1 1 0.0078125 42.5",
      "repair 3 2 0 0 -0.375 7.0",
  };
  std::string payload;
  for (const std::string& request : requests) payload += request + "\n";

  const std::string input_path = dir_ + "/tcp_vs_stdio_input.txt";
  std::FILE* f = std::fopen(input_path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs((payload + "quit\n").c_str(), f);
  std::fclose(f);
  int exit_code = -1;
  const std::string stdio_output = RunCapture(
      "serve --plan=" + plan_path_ + " < " + input_path, &exit_code);
  EXPECT_EQ(exit_code, 0);
  const std::vector<std::string> stdio_lines = SortedNonJsonLines(stdio_output);
  ASSERT_EQ(stdio_lines.size(), requests.size()) << stdio_output;
  EXPECT_NE(std::find(stdio_lines.begin(), stdio_lines.end(), "ok reload 2"),
            stdio_lines.end())
      << stdio_output;

  const int port = StartTcpServe("--net-threads=2");
  ASSERT_GT(port, 0);
  const std::vector<std::string> tcp_lines = SortedNonJsonLines(TcpExchange(port, payload));
  EXPECT_EQ(tcp_lines, stdio_lines);
  StopTcpServe();
}

TEST_F(CliTest, ServeTcpDrainsToExitZeroOnSigterm) {
  ASSERT_EQ(Run("design --research=" + research_path_ + " --plan=" + plan_path_ +
                " --n_q=40"),
            0);
  // One shell: background the server, wait for the bound-port file, send
  // SIGTERM, and propagate the server's own exit code through `wait`.
  const std::string port_file = dir_ + "/drain_port.txt";
  const std::string command =
      std::string(OTFAIR_CLI_PATH) + " serve --plan=" + plan_path_ +
      " --listen=0 --port-file=" + port_file + " > /dev/null 2>&1 & pid=$!; i=0;" +
      " while [ ! -s " + port_file + " ] && [ $i -lt 200 ]; do sleep 0.05; i=$((i+1));" +
      " done; kill -TERM $pid; wait $pid";
  const int status = std::system(command.c_str());
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST_F(CliTest, LoadgenEndToEndAgainstServeTcp) {
  ASSERT_EQ(Run("design --research=" + research_path_ + " --plan=" + plan_path_ +
                " --n_q=40"),
            0);
  const int port = StartTcpServe("--net-threads=2");
  ASSERT_GT(port, 0);
  const std::string port_flag = " --port=" + std::to_string(port);

  const std::string json_path = dir_ + "/loadgen.json";
  const std::string csv_path = dir_ + "/loadgen.csv";
  ASSERT_EQ(Run("loadgen" + port_flag +
                " --connections=4 --sessions=8 --rows=200 --json=" + json_path +
                " --csv=" + csv_path),
            0);
  int exit_code = -1;
  const std::string json = ReadFileOrEmpty(json_path);
  EXPECT_NE(json.find("\"clean\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rows_ok\":1600"), std::string::npos) << json;

  // Control mode reaches the same server; the exposition carries the
  // net-layer counters.
  const std::string prom =
      RunCapture("loadgen" + port_flag + " --verb='metrics --prom'", &exit_code);
  EXPECT_EQ(exit_code, 0);
  EXPECT_NE(prom.find("otfair_net_connections_accepted_total"), std::string::npos);
  EXPECT_NE(prom.find("# EOF"), std::string::npos);

  // A second run appends one CSV row under the same header.
  ASSERT_EQ(Run("loadgen" + port_flag + " --connections=2 --rows=50 --csv=" + csv_path),
            0);
  const std::string csv = ReadFileOrEmpty(csv_path);
  EXPECT_EQ(static_cast<int>(std::count(csv.begin(), csv.end(), '\n')), 3) << csv;
  EXPECT_EQ(csv.rfind("rows_sent,", 0), 0u) << csv;
  StopTcpServe();
}

}  // namespace
}  // namespace otfair
