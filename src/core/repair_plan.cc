#include "core/repair_plan.h"

#include <cmath>
#include <cstdint>

#include "common/byte_io.h"
#include "common/check.h"
#include "common/crc32.h"
#include "common/file_util.h"
#include "data/dataset.h"

namespace otfair::core {

using common::ByteReader;
using common::ByteWriter;
using common::Matrix;
using common::Result;
using common::Status;

namespace {

constexpr uint32_t kMagic = 0x4F544652;  // "OTFR"
// v1 stored dense n_Q x n_Q plan matrices; v2 stores CSR plans; v3 adds
// the |U|/|S| level counts and barycentric lambdas of the multi-group
// pipeline. Loading accepts all three (v1/v2 map to the binary levels),
// saving always writes v3.
constexpr uint32_t kVersionDense = 1;
constexpr uint32_t kVersionCsr = 2;
constexpr uint32_t kVersionMultiGroup = 3;
// v4 = the v3 layout plus a trailing CRC32 of everything before it. The
// structural checks catch truncation and inflated counts, but without a
// checksum a bit flip inside a double payload is invisible — it just
// shifts a weight by an undetectable amount. v4 closes that hole; v1-v3
// files keep loading without one.
constexpr uint32_t kVersionChecksummed = 4;

size_t MeasureBytes(const ot::DiscreteMeasure& m) {
  return sizeof(uint64_t) + 2 * m.size() * sizeof(double);
}

void WriteMeasure(ByteWriter& out, const ot::DiscreteMeasure& m) {
  out.U64(m.size());
  out.Doubles(m.support().data(), m.size());
  out.Doubles(m.weights().data(), m.size());
}

Result<ot::DiscreteMeasure> ReadMeasure(ByteReader& in) {
  uint64_t n = 0;
  if (!in.U64(&n) || n == 0 || n > (1u << 24))
    return Status::IoError("corrupt measure header");
  // The payload is 2n doubles; reject before allocating when the bytes
  // cannot possibly be there (a corrupt count field must not drive a
  // multi-gigabyte allocation).
  if (!in.Fits(2 * n, sizeof(double)))
    return Status::IoError("truncated measure payload");
  std::vector<double> support(n);
  std::vector<double> weights(n);
  if (!in.Doubles(support.data(), n) || !in.Doubles(weights.data(), n))
    return Status::IoError("truncated measure payload");
  // FromNormalized keeps the stored weights bit-for-bit (the writer only
  // ever serializes valid measures), so parse is an exact inverse of
  // serialize and recovered plans re-serialize byte-identically.
  return ot::DiscreteMeasure::FromNormalized(std::move(support), std::move(weights));
}

}  // namespace

Result<std::vector<double>> ResolveLambdas(const std::vector<double>& lambdas, double t,
                                           size_t s_levels) {
  if (lambdas.empty()) {
    if (s_levels == 2) return std::vector<double>{1.0 - t, t};
    return std::vector<double>(s_levels, 1.0 / static_cast<double>(s_levels));
  }
  if (lambdas.size() != s_levels)
    return Status::InvalidArgument("lambdas must carry one weight per s level");
  double total = 0.0;
  for (double l : lambdas) {
    if (!(l >= 0.0)) return Status::InvalidArgument("lambdas must be non-negative");
    total += l;
  }
  if (total <= 0.0) return Status::InvalidArgument("lambdas must not all be zero");
  std::vector<double> out(lambdas);
  for (double& l : out) l /= total;
  return out;
}

Status ChannelPlan::Validate(double tolerance) const {
  const size_t nq = grid.size();
  if (nq < 2) return Status::FailedPrecondition("channel grid too small");
  if (marginal.size() < 2 || plan.size() != marginal.size())
    return Status::FailedPrecondition("channel must carry one marginal and plan per s level");
  if (barycenter.size() != nq)
    return Status::FailedPrecondition("barycenter support size mismatch");
  for (size_t s = 0; s < marginal.size(); ++s) {
    const ot::SparsePlan& pi = plan[s];
    const ot::DiscreteMeasure& mu = marginal[s];
    if (mu.size() != nq) return Status::FailedPrecondition("marginal support size mismatch");
    if (pi.rows() != nq || pi.cols() != nq)
      return Status::FailedPrecondition("plan matrix shape mismatch");
    // O(nnz) marginal checks on the CSR arrays.
    const std::vector<double> rows = pi.RowSums();
    const std::vector<double> cols = pi.ColSums();
    for (size_t q = 0; q < nq; ++q) {
      if (std::fabs(rows[q] - mu.weight_at(q)) > tolerance)
        return Status::FailedPrecondition("plan row marginal violates mu_s");
      if (std::fabs(cols[q] - barycenter.weight_at(q)) > tolerance)
        return Status::FailedPrecondition("plan column marginal violates barycenter");
    }
  }
  return Status::Ok();
}

RepairPlanSet::RepairPlanSet(size_t dim, std::vector<std::string> feature_names,
                             size_t s_levels, size_t u_levels)
    : dim_(dim),
      s_levels_(s_levels),
      u_levels_(u_levels),
      feature_names_(std::move(feature_names)),
      channels_(u_levels * dim) {
  OTFAIR_CHECK_GT(dim_, 0u);
  OTFAIR_CHECK_GE(s_levels_, 2u);
  OTFAIR_CHECK_GE(u_levels_, 1u);
  OTFAIR_CHECK_EQ(feature_names_.size(), dim_);
  // Default lambdas: uniform over the s levels ({0.5, 0.5} for binary).
  lambdas_.assign(s_levels_, 1.0 / static_cast<double>(s_levels_));
  for (ChannelPlan& channel : channels_) {
    channel.marginal.resize(s_levels_);
    channel.plan.resize(s_levels_);
  }
}

ChannelPlan& RepairPlanSet::At(int u, size_t k) {
  OTFAIR_CHECK(u >= 0 && static_cast<size_t>(u) < u_levels_);
  OTFAIR_CHECK_LT(k, dim_);
  return channels_[static_cast<size_t>(u) * dim_ + k];
}

const ChannelPlan& RepairPlanSet::At(int u, size_t k) const {
  OTFAIR_CHECK(u >= 0 && static_cast<size_t>(u) < u_levels_);
  OTFAIR_CHECK_LT(k, dim_);
  return channels_[static_cast<size_t>(u) * dim_ + k];
}

Status RepairPlanSet::set_lambdas(std::vector<double> lambdas) {
  // Explicit weights only — the setter never defaults, so an empty vector
  // is a size mismatch, and ResolveLambdas carries the one validation/
  // normalization contract (its t is unused on the explicit path).
  if (lambdas.empty())
    return Status::InvalidArgument("lambdas must carry one weight per s level");
  auto resolved = ResolveLambdas(lambdas, /*t=*/0.0, s_levels_);
  if (!resolved.ok()) return resolved.status();
  lambdas_ = std::move(*resolved);
  return Status::Ok();
}

Status RepairPlanSet::Validate(double tolerance) const {
  if (dim_ == 0) return Status::FailedPrecondition("empty plan set");
  for (size_t u = 0; u < u_levels_; ++u) {
    for (size_t k = 0; k < dim_; ++k) {
      const ChannelPlan& channel = At(static_cast<int>(u), k);
      if (channel.s_levels() != s_levels_)
        return Status::FailedPrecondition("channel (u=" + std::to_string(u) +
                                          ", k=" + std::to_string(k) +
                                          "): s-level count mismatch");
      Status status = channel.Validate(tolerance);
      if (!status.ok())
        return Status(status.code(), "channel (u=" + std::to_string(u) +
                                         ", k=" + std::to_string(k) + "): " + status.message());
    }
  }
  return Status::Ok();
}

namespace {
/// The checks every batch repair input shares, around its label check.
template <typename CheckLabels>
Status CheckRepairRows(const RepairPlanSet& plans, const data::Dataset& dataset,
                       const CheckLabels& check_labels) {
  if (dataset.dim() != plans.dim())
    return Status::InvalidArgument("dataset dimensionality does not match the plan set");
  OTFAIR_RETURN_IF_ERROR(check_labels());
  for (int u : dataset.u_labels()) {
    if (u < 0 || static_cast<size_t>(u) >= plans.u_levels())
      return Status::InvalidArgument("dataset u labels exceed the plan's u levels");
  }
  return dataset.CheckFinite();
}
}  // namespace

Status RepairPlanSet::CheckRepairInput(const data::Dataset& dataset,
                                       const std::vector<int>& s_labels) const {
  return CheckRepairRows(*this, dataset, [&]() -> Status {
    if (s_labels.size() != dataset.size())
      return Status::InvalidArgument("s_labels length must match dataset size");
    for (int s : s_labels) {
      if (s < 0 || static_cast<size_t>(s) >= s_levels_)
        return Status::InvalidArgument("s_labels must lie in [0, " +
                                       std::to_string(s_levels_) + ")");
    }
    return Status::Ok();
  });
}

Status RepairPlanSet::CheckRepairInput(const data::Dataset& dataset,
                                       const std::vector<double>& pr_s1) const {
  return CheckRepairRows(*this, dataset, [&]() -> Status {
    if (pr_s1.size() != dataset.size())
      return Status::InvalidArgument("pr_s1 length must match dataset size");
    if (s_levels_ != 2)
      return Status::InvalidArgument("soft (probabilistic) repair is defined for binary s only");
    for (double p : pr_s1) {
      if (!(p >= 0.0 && p <= 1.0)) return Status::InvalidArgument("posteriors must lie in [0, 1]");
    }
    return Status::Ok();
  });
}

size_t RepairPlanSet::SerializedSize() const {
  // Mirrors SerializeToString field by field.
  size_t size = 2 * sizeof(uint32_t) + sizeof(uint64_t) + sizeof(double) +
                2 * sizeof(uint32_t) + lambdas_.size() * sizeof(double);
  for (const std::string& name : feature_names_) size += sizeof(uint64_t) + name.size();
  for (const ChannelPlan& channel : channels_) {
    size += sizeof(uint64_t) + 2 * sizeof(double);
    for (size_t s = 0; s < s_levels_; ++s) size += MeasureBytes(channel.marginal[s]);
    size += MeasureBytes(channel.barycenter);
    for (size_t s = 0; s < s_levels_; ++s) {
      const ot::SparsePlan& pi = channel.plan[s];
      size += sizeof(uint64_t) + pi.row_offsets().size() * sizeof(uint64_t) +
              pi.nnz() * (sizeof(uint32_t) + sizeof(double));
    }
  }
  return size + sizeof(uint32_t);  // trailing CRC32
}

std::string RepairPlanSet::SerializeToString() const {
  const size_t expected_size = SerializedSize();
  std::string bytes;
  bytes.reserve(expected_size);
  ByteWriter out(&bytes);
  out.U32(kMagic);
  out.U32(kVersionChecksummed);
  out.U64(dim_);
  out.F64(target_t_);
  out.U32(static_cast<uint32_t>(u_levels_));
  out.U32(static_cast<uint32_t>(s_levels_));
  out.Doubles(lambdas_.data(), lambdas_.size());
  for (const std::string& name : feature_names_) out.String(name);
  for (size_t u = 0; u < u_levels_; ++u) {
    for (size_t k = 0; k < dim_; ++k) {
      const ChannelPlan& channel = At(static_cast<int>(u), k);
      out.U64(channel.grid.size());
      out.F64(channel.grid.lo());
      out.F64(channel.grid.hi());
      for (size_t s = 0; s < s_levels_; ++s) WriteMeasure(out, channel.marginal[s]);
      WriteMeasure(out, channel.barycenter);
      for (size_t s = 0; s < s_levels_; ++s) {
        // CSR payload: nnz, then offsets / column indices / values, each
        // as one contiguous write. The artifact shrinks from O(n_Q^2) to
        // O(nnz) doubles per plan. Offsets go through a u64 staging
        // buffer so the on-disk width is fixed regardless of size_t.
        const ot::SparsePlan& pi = channel.plan[s];
        out.U64(pi.nnz());
        const std::vector<uint64_t> offsets(pi.row_offsets().begin(), pi.row_offsets().end());
        out.U64s(offsets.data(), offsets.size());
        out.U32s(pi.col_indices().data(), pi.nnz());
        out.Doubles(pi.values().data(), pi.nnz());
      }
    }
  }
  out.U32(common::Crc32(bytes.data(), bytes.size()));
  OTFAIR_CHECK_EQ(bytes.size(), expected_size);
  return bytes;
}

Status RepairPlanSet::SaveToFile(const std::string& path) const {
  if (dim_ == 0) return Status::FailedPrecondition("cannot save empty plan set");
  // Serialize fully in memory, then replace the file atomically: a crash
  // mid-save leaves the previous artifact intact, never a torn file.
  return common::AtomicWriteFile(path, SerializeToString());
}

Result<RepairPlanSet> RepairPlanSet::ParseFromBuffer(const char* data, size_t size,
                                                     const std::string& context) {
  ByteReader in(data, size);
  uint32_t magic = 0;
  uint32_t version = 0;
  if (!in.U32(&magic) || magic != kMagic)
    return Status::IoError("not a repair-plan file: " + context);
  if (!in.U32(&version) ||
      (version != kVersionDense && version != kVersionCsr &&
       version != kVersionMultiGroup && version != kVersionChecksummed))
    return Status::IoError("unsupported plan version in " + context);
  uint64_t dim = 0;
  double target_t = 0.5;
  if (!in.U64(&dim) || dim == 0 || dim > (1u << 16))
    return Status::IoError("corrupt plan header: " + context);
  if (!in.F64(&target_t) || !std::isfinite(target_t))
    return Status::IoError("corrupt plan header: " + context);
  // v1/v2 are the binary-era formats: two u strata, two s classes, the
  // barycentric weights implied by t.
  size_t u_levels = 2;
  size_t s_levels = 2;
  std::vector<double> lambdas = {1.0 - target_t, target_t};
  if (version >= kVersionMultiGroup) {
    uint32_t raw_u = 0;
    uint32_t raw_s = 0;
    if (!in.U32(&raw_u) || !in.U32(&raw_s) || raw_u < 1 || raw_s < 2 ||
        raw_u > data::kMaxAttributeLevels || raw_s > data::kMaxAttributeLevels)
      return Status::IoError("corrupt level counts in " + context);
    u_levels = raw_u;
    s_levels = raw_s;
    if (!in.Fits(s_levels, sizeof(double)))
      return Status::IoError("truncated lambdas in " + context);
    lambdas.assign(s_levels, 0.0);
    if (!in.Doubles(lambdas.data(), lambdas.size()))
      return Status::IoError("truncated lambdas in " + context);
  }
  std::vector<std::string> names(dim);
  for (uint64_t k = 0; k < dim; ++k) {
    if (!in.String(&names[k], /*max_len=*/1u << 20))
      return Status::IoError("corrupt feature names: " + context);
  }

  RepairPlanSet set(dim, std::move(names), s_levels, u_levels);
  set.set_target_t(target_t);
  if (Status status = set.set_lambdas(std::move(lambdas)); !status.ok())
    return Status::IoError("corrupt lambdas in " + context + ": " + status.message());
  for (size_t u = 0; u < u_levels; ++u) {
    for (size_t k = 0; k < dim; ++k) {
      ChannelPlan& channel = set.At(static_cast<int>(u), k);
      uint64_t nq = 0;
      double lo = 0.0;
      double hi = 0.0;
      if (!in.U64(&nq) || nq < 2 || nq > (1u << 24))
        return Status::IoError("corrupt channel grid: " + context);
      if (!in.F64(&lo) || !in.F64(&hi))
        return Status::IoError("corrupt channel grid: " + context);
      auto grid = SupportGrid::Create(lo, hi, nq);
      if (!grid.ok()) return grid.status();
      channel.grid = std::move(*grid);
      for (size_t s = 0; s < s_levels; ++s) {
        auto m = ReadMeasure(in);
        if (!m.ok()) return m.status();
        channel.marginal[s] = std::move(*m);
      }
      auto bary = ReadMeasure(in);
      if (!bary.ok()) return bary.status();
      channel.barycenter = std::move(*bary);
      for (size_t s = 0; s < s_levels; ++s) {
        if (version == kVersionDense) {
          // Legacy dense payload: read the full matrix and compress. The
          // nq x nq doubles must actually be present before the matrix
          // (up to gigabytes for a corrupt nq) is allocated.
          if (!in.Fits(nq * nq, sizeof(double)))
            return Status::IoError("truncated plan matrix: " + context);
          Matrix pi(nq, nq);
          if (!in.Doubles(pi.data(), pi.size()))
            return Status::IoError("truncated plan matrix: " + context);
          channel.plan[s] = ot::SparsePlan::FromDense(pi);
          continue;
        }
        uint64_t nnz = 0;
        if (!in.U64(&nnz) || nnz > nq * nq)
          return Status::IoError("corrupt plan nnz: " + context);
        if (!in.Fits(nq + 1, sizeof(uint64_t)) ||
            in.remaining() < (nq + 1) * sizeof(uint64_t) +
                                 nnz * (sizeof(uint32_t) + sizeof(double)))
          return Status::IoError("truncated CSR plan in " + context);
        std::vector<uint64_t> raw_offsets(nq + 1);
        std::vector<uint32_t> cols(nnz);
        std::vector<double> values(nnz);
        if (!in.U64s(raw_offsets.data(), raw_offsets.size()))
          return Status::IoError("truncated plan offsets: " + context);
        if (nnz > 0 && !in.U32s(cols.data(), nnz))
          return Status::IoError("truncated plan columns: " + context);
        if (nnz > 0 && !in.Doubles(values.data(), nnz))
          return Status::IoError("truncated plan values: " + context);
        auto pi = ot::SparsePlan::FromCsr(
            nq, nq, std::vector<size_t>(raw_offsets.begin(), raw_offsets.end()),
            std::move(cols), std::move(values));
        if (!pi.ok())
          return Status::IoError("corrupt CSR plan in " + context + ": " + pi.status().message());
        channel.plan[s] = std::move(*pi);
      }
    }
  }
  if (version == kVersionChecksummed) {
    uint32_t stored_crc = 0;
    if (!in.U32(&stored_crc))
      return Status::IoError("missing plan checksum in " + context);
    if (!in.exhausted())
      return Status::IoError("trailing bytes after plan payload in " + context);
    const uint32_t actual_crc = common::Crc32(data, size - sizeof(uint32_t));
    if (stored_crc != actual_crc)
      return Status::IoError("plan checksum mismatch in " + context);
  } else if (!in.exhausted()) {
    return Status::IoError("trailing bytes after plan payload in " + context);
  }
  Status valid = set.Validate(1e-5);
  if (!valid.ok()) return Status(valid.code(), "loaded plan invalid: " + valid.message());
  return set;
}

Result<RepairPlanSet> RepairPlanSet::LoadFromFile(const std::string& path) {
  auto bytes = common::ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  return ParseFromBuffer(bytes->data(), bytes->size(), path);
}

}  // namespace otfair::core
