#include "serve/checkpointer.h"

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/byte_io.h"
#include "common/crc32.h"
#include "common/file_util.h"
#include "obs/trace.h"

namespace otfair::serve {

using common::ByteReader;
using common::ByteWriter;
using common::Result;
using common::Status;

namespace {

constexpr uint32_t kCheckpointMagic = 0x4F544350;  // "OTCP"
/// Version 2: the plan and the channel sketches are the whole observed
/// state. Other versions are unsupported; recovery skips them.
constexpr uint32_t kCheckpointVersion = 2;
/// magic + version + payload size + payload crc.
constexpr size_t kHeaderBytes = 4 + 4 + 8 + 4;

constexpr char kFilePrefix[] = "checkpoint-";
constexpr char kFileSuffix[] = ".otcp";

}  // namespace

std::string CheckpointPath(const std::string& dir, uint64_t generation) {
  char name[64];
  // Zero-padded so lexical and numeric order agree in directory listings.
  std::snprintf(name, sizeof(name), "%s%020llu%s", kFilePrefix,
                static_cast<unsigned long long>(generation), kFileSuffix);
  return dir + "/" + name;
}

std::string SerializeCheckpoint(const CheckpointData& data) {
  std::string payload;
  ByteWriter out(&payload);
  out.U64(data.generation);
  out.U64(data.plan_version);
  out.U8(data.degraded ? 1 : 0);
  out.U8(data.episode_open ? 1 : 0);
  out.U64(data.seed);
  out.U32(data.mode);
  out.F64(data.strength);
  // The plan rides along in full: a self-heal redesign installs plans
  // that exist nowhere on disk, and recovery must serve exactly what the
  // pre-crash process served.
  out.String(data.plans.SerializeToString());
  out.U64(data.sketches.size());
  for (const stats::QuantileSketch& sketch : data.sketches) sketch.SerializeTo(out);

  std::string bytes;
  ByteWriter header(&bytes);
  header.U32(kCheckpointMagic);
  header.U32(kCheckpointVersion);
  header.U64(payload.size());
  header.U32(common::Crc32(payload));
  bytes += payload;
  return bytes;
}

Result<CheckpointData> ParseCheckpoint(const char* data, size_t size,
                                       const std::string& context) {
  ByteReader header(data, size);
  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t payload_size = 0;
  uint32_t crc = 0;
  if (!header.U32(&magic) || magic != kCheckpointMagic)
    return Status::IoError("not a checkpoint file: " + context);
  if (!header.U32(&version) || version != kCheckpointVersion)
    return Status::IoError("unsupported checkpoint version in " + context);
  if (!header.U64(&payload_size) || !header.U32(&crc))
    return Status::IoError("truncated checkpoint header: " + context);
  // Exact-size match: a truncated file (crash mid-write never produces one
  // — rename is atomic — but a copied or tampered file can) and an
  // oversized file with trailing bytes are both rejected here.
  if (payload_size != header.remaining())
    return Status::IoError("checkpoint size mismatch in " + context + ": header says " +
                           std::to_string(payload_size) + " bytes, file carries " +
                           std::to_string(header.remaining()));
  const char* payload = data + kHeaderBytes;
  if (common::Crc32(payload, payload_size) != crc)
    return Status::IoError("checkpoint CRC mismatch in " + context);

  ByteReader in(payload, payload_size);
  CheckpointData out;
  uint8_t degraded = 0;
  uint8_t episode_open = 0;
  if (!in.U64(&out.generation) || !in.U64(&out.plan_version) || !in.U8(&degraded) ||
      !in.U8(&episode_open) || !in.U64(&out.seed) || !in.U32(&out.mode) ||
      !in.F64(&out.strength))
    return Status::IoError("truncated checkpoint payload: " + context);
  if (out.generation == 0 || out.plan_version == 0)
    return Status::IoError("corrupt checkpoint counters in " + context);
  if (degraded > 1 || episode_open > 1)
    return Status::IoError("corrupt checkpoint flags in " + context);
  out.degraded = degraded == 1;
  out.episode_open = episode_open == 1;
  if (out.mode > static_cast<uint32_t>(core::TransportMode::kConditionalMean))
    return Status::IoError("corrupt transport mode in " + context);
  if (!std::isfinite(out.strength) || out.strength < 0.0 || out.strength > 1.0)
    return Status::IoError("corrupt repair strength in " + context);

  std::string plan_bytes;
  if (!in.String(&plan_bytes, in.remaining()))
    return Status::IoError("truncated checkpoint plan: " + context);
  auto plans = core::RepairPlanSet::ParseFromBuffer(plan_bytes.data(), plan_bytes.size(),
                                                    "checkpoint " + context);
  if (!plans.ok()) return plans.status();
  out.plans = std::move(*plans);

  uint64_t sketch_count = 0;
  if (!in.U64(&sketch_count))
    return Status::IoError("truncated checkpoint sketches: " + context);
  const uint64_t channels =
      static_cast<uint64_t>(out.plans.u_levels()) * out.plans.s_levels() * out.plans.dim();
  if (sketch_count != channels)
    return Status::IoError("checkpoint sketch count does not match plan channels in " +
                           context);
  out.sketches.resize(static_cast<size_t>(sketch_count));
  for (stats::QuantileSketch& sketch : out.sketches) {
    Status status = sketch.DeserializeFrom(in);
    if (!status.ok())
      return Status::IoError("corrupt checkpoint sketch in " + context + ": " +
                             status.message());
  }
  if (!in.exhausted())
    return Status::IoError("trailing bytes after checkpoint payload in " + context);
  return out;
}

Result<CheckpointData> LoadCheckpointFile(const std::string& path) {
  auto bytes = common::ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  return ParseCheckpoint(bytes->data(), bytes->size(), path);
}

Result<RecoveredCheckpoint> RecoverNewestCheckpoint(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr)
    return Status::NotFound("no checkpoint directory at '" + dir + "': " +
                            std::strerror(errno));
  std::vector<std::pair<uint64_t, std::string>> candidates;
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.size() <= std::strlen(kFilePrefix) + std::strlen(kFileSuffix)) continue;
    if (name.compare(0, std::strlen(kFilePrefix), kFilePrefix) != 0) continue;
    if (name.compare(name.size() - std::strlen(kFileSuffix), std::strlen(kFileSuffix),
                     kFileSuffix) != 0)
      continue;
    const std::string digits = name.substr(
        std::strlen(kFilePrefix),
        name.size() - std::strlen(kFilePrefix) - std::strlen(kFileSuffix));
    char* end = nullptr;
    errno = 0;
    const unsigned long long generation = std::strtoull(digits.c_str(), &end, 10);
    if (errno != 0 || end == digits.c_str() || *end != '\0' || generation == 0) continue;
    candidates.emplace_back(static_cast<uint64_t>(generation), dir + "/" + name);
  }
  ::closedir(d);
  if (candidates.empty())
    return Status::NotFound("no checkpoint files in '" + dir + "'");

  // Newest first; fall back generation by generation past anything that
  // fails validation. Never give up until every candidate is exhausted.
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  RecoveredCheckpoint recovered;
  for (const auto& [generation, path] : candidates) {
    auto data = LoadCheckpointFile(path);
    if (data.ok() && data->generation != generation) {
      recovered.skipped.push_back(path + ": generation field " +
                                  std::to_string(data->generation) +
                                  " does not match filename");
      continue;
    }
    if (!data.ok()) {
      recovered.skipped.push_back(path + ": " + data.status().ToString());
      continue;
    }
    recovered.data = std::move(*data);
    recovered.path = path;
    return recovered;
  }
  std::string detail;
  for (const std::string& s : recovered.skipped) detail += "\n  " + s;
  return Status::NotFound("no intact checkpoint in '" + dir + "'; rejected " +
                          std::to_string(recovered.skipped.size()) + " file(s):" + detail);
}

Checkpointer::Checkpointer(RepairService* service, const CheckpointerOptions& options,
                           Redesigner* redesigner, uint64_t start_generation)
    : service_(service),
      options_(options),
      redesigner_(redesigner),
      generation_(start_generation) {}

Result<std::unique_ptr<Checkpointer>> Checkpointer::Create(RepairService* service,
                                                           const CheckpointerOptions& options,
                                                           Redesigner* redesigner,
                                                           uint64_t start_generation) {
  if (service == nullptr) return Status::InvalidArgument("service must not be null");
  if (options.dir.empty()) return Status::InvalidArgument("checkpoint dir must be set");
  if (options.interval_ms <= 0)
    return Status::InvalidArgument("checkpoint interval_ms must be >= 1");
  if (options.keep < 1) return Status::InvalidArgument("checkpoint keep must be >= 1");
  if (::mkdir(options.dir.c_str(), 0755) != 0 && errno != EEXIST)
    return Status::IoError("cannot create checkpoint dir '" + options.dir +
                           "': " + std::strerror(errno));
  std::unique_ptr<Checkpointer> checkpointer(
      new Checkpointer(service, options, redesigner, start_generation));
  // Best-effort gauges (a second checkpointer on the same service keeps
  // serving; only the first one's gauges register).
  Checkpointer* raw = checkpointer.get();
  obs::Registry& registry = service->metrics().registry();
  auto generation_cb = registry.AddCallback(
      "otfair_serve_checkpoint_generation", "Last checkpoint generation written",
      obs::MetricKind::kGauge, [raw] {
        return std::vector<obs::MetricSample>{{"", static_cast<double>(raw->generation())}};
      });
  if (generation_cb.ok()) checkpointer->metric_callbacks_.push_back(std::move(*generation_cb));
  auto age_cb = registry.AddCallback(
      "otfair_serve_checkpoint_age_seconds",
      "Seconds since the last successful checkpoint (-1 before the first)",
      obs::MetricKind::kGauge, [raw] {
        return std::vector<obs::MetricSample>{{"", raw->AgeSeconds()}};
      });
  if (age_cb.ok()) checkpointer->metric_callbacks_.push_back(std::move(*age_cb));
  checkpointer->thread_ = std::thread([c = checkpointer.get()] { c->Loop(); });
  return checkpointer;
}

double Checkpointer::AgeSeconds() const {
  const uint64_t last = last_write_ns_.load(std::memory_order_relaxed);
  if (last == 0) return -1.0;
  return static_cast<double>(obs::TraceNowNs() - last) / 1e9;
}

Checkpointer::~Checkpointer() { Stop(); }

void Checkpointer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Checkpointer::Loop() {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                   [&] { return stop_; });
      if (stop_) return;
    }
    // Failures are counted in metrics and retried next tick; the loop
    // itself never dies on one.
    Status status = WriteNow();
    (void)status;
  }
}

Status Checkpointer::WriteNow() {
  OTFAIR_TRACE_SPAN("checkpoint_write");
  std::lock_guard<std::mutex> write_lock(write_mu_);
  const uint64_t generation = generation_.load(std::memory_order_relaxed) + 1;

  CheckpointData data;
  data.generation = generation;
  RepairService::CheckpointState state = service_->StateForCheckpoint();
  data.plan_version = state.plan_version;
  data.degraded = state.degraded;
  data.episode_open = redesigner_ != nullptr && redesigner_->episode_open();
  const ServiceOptions& service_options = service_->options();
  data.seed = service_options.seed;
  data.mode = static_cast<uint32_t>(service_options.mode);
  data.strength = service_options.strength;
  data.plans = std::move(state.plans);
  data.sketches = std::move(state.sketches);

  Status status = [&] {
    // The write-temp + fsync + rename is where a checkpoint actually
    // stalls; a distinct span makes slow disks visible inside the write.
    OTFAIR_TRACE_SPAN("checkpoint_fsync");
    return common::AtomicWriteFile(CheckpointPath(options_.dir, generation),
                                   SerializeCheckpoint(data));
  }();
  if (!status.ok()) {
    service_->metrics().AddCheckpointFailed();
    return status;
  }
  generation_.store(generation, std::memory_order_relaxed);
  last_write_ns_.store(obs::TraceNowNs(), std::memory_order_relaxed);
  service_->metrics().AddCheckpoint();

  // Prune: keep the last `keep` generations. Best-effort — a prune failure
  // only leaves extra fallback files around.
  if (generation > static_cast<uint64_t>(options_.keep)) {
    const uint64_t oldest_kept = generation - static_cast<uint64_t>(options_.keep) + 1;
    DIR* d = ::opendir(options_.dir.c_str());
    if (d != nullptr) {
      std::vector<std::string> stale;
      while (struct dirent* entry = ::readdir(d)) {
        const std::string name = entry->d_name;
        if (name.compare(0, std::strlen(kFilePrefix), kFilePrefix) != 0) continue;
        const unsigned long long g =
            std::strtoull(name.c_str() + std::strlen(kFilePrefix), nullptr, 10);
        if (g > 0 && g < oldest_kept) stale.push_back(options_.dir + "/" + name);
      }
      ::closedir(d);
      for (const std::string& path : stale) ::unlink(path.c_str());
    }
  }
  return Status::Ok();
}

}  // namespace otfair::serve
