#include "ash/bti/batch_ensemble.h"

#include <algorithm>
#include <stdexcept>

#include "ash/obs/profile.h"
#include "ash/util/thread_pool.h"

namespace ash::bti {

BatchEnsemble::BatchEnsemble(const std::vector<BatchMemberSpec>& specs,
                             const BatchConfig& config)
    : config_(config) {
  if (specs.empty()) {
    throw std::invalid_argument("BatchEnsemble: empty population");
  }
  for (const auto& spec : specs) {
    // Draw the member's population through the solo constructor: the batch
    // *is* those ensembles, which is what makes it bit-identical to them.
    const TrapEnsemble source(spec.params, spec.seed);
    adopt_member(source);
  }
}

void BatchEnsemble::adopt_member(const TrapEnsemble& source) {
  // Class lookup: identical kinetics parameters *and* identical draws.
  // Two members built from the same seed and kinetics constants share
  // every draw (the per-trap DeltaVth scale consumes exactly one uniform
  // regardless of its mean, so the streams stay aligned); distinct seeds
  // diverge at the first trap, so the element compare fails fast.
  const TrapKinetics& kinetics = source.kinetics();
  auto cls = std::find_if(
      classes_.begin(), classes_.end(),
      [&](const TrapClass& c) { return c.kinetics.same_kinetics(kinetics); });
  if (cls == classes_.end()) {
    classes_.push_back({TrapKinetics(kinetics, kRateCacheSlots), {}});
    cls = classes_.end() - 1;
  }

  cls->members.push_back(member_count());
  member_params_.push_back(source.parameters());
  const std::vector<double>& dv = source.contributions();
  delta_vth_v_.insert(delta_vth_v_.end(), dv.begin(), dv.end());
  const std::vector<double> occ = source.occupancies();
  occupancy_.insert(occupancy_.end(), occ.begin(), occ.end());
  offsets_.push_back(offsets_.back() + dv.size());
  active_entry_.push_back(nullptr);
  cached_delta_.push_back(0.0);
  cached_delta_version_.push_back(~std::uint64_t{0});
}

std::size_t BatchEnsemble::index_of(int member) const {
  if (member < 0 || member >= member_count()) {
    throw std::out_of_range("BatchEnsemble: member index out of range");
  }
  return static_cast<std::size_t>(member);
}

int BatchEnsemble::trap_count(int member) const {
  const std::size_t m = index_of(member);
  return static_cast<int>(offsets_[m + 1] - offsets_[m]);
}

const TdParameters& BatchEnsemble::parameters(int member) const {
  return member_params_[index_of(member)];
}

void BatchEnsemble::apply_members(int lo, int hi) {
  for (int m = lo; m < hi; ++m) {
    const auto k = static_cast<std::size_t>(m);
    TrapKinetics::apply(*active_entry_[k], occupancy_.data() + offsets_[k]);
  }
}

void BatchEnsemble::evolve(const OperatingCondition& c, Seconds dt) {
  const obs::ScopedTimer timer(
      obs::kernel_histogram(obs::Kernel::kBtiBatchEvolve));
  // Validate against every class before mutating anything: a throwing
  // evolve leaves the whole population untouched.  dt == 0 is a no-op.
  for (const auto& cls : classes_) {
    if (!cls.kinetics.check_step(c, dt)) return;
  }

  // One rate/decay computation per (condition, trap class)...
  for (auto& cls : classes_) {
    const TrapKinetics::RateEntry& e = cls.kinetics.entry_for(c, dt);
    for (const int m : cls.members) {
      active_entry_[static_cast<std::size_t>(m)] = &e;
    }
  }

  // ...then one fused multiply-add sweep over the whole population,
  // optionally sharded over disjoint member ranges.  The update is
  // elementwise-independent, so any shard split is bit-identical to the
  // serial loop.
  const int members = member_count();
  util::ThreadPool* pool = config_.pool;
  if (pool != nullptr && pool->size() > 0 && members > 1) {
    const int shards = std::min(members, pool->size() * 4);
    pool->parallel_for(shards, [&](int shard) {
      const auto lo = static_cast<int>(
          static_cast<long long>(members) * shard / shards);
      const auto hi = static_cast<int>(
          static_cast<long long>(members) * (shard + 1) / shards);
      apply_members(lo, hi);
      return 0;
    });
  } else {
    apply_members(0, members);
  }
  ++version_;
}

double BatchEnsemble::delta_vth(int member) const {
  const std::size_t m = index_of(member);
  if (cached_delta_version_[m] != version_) {
    const double* occ = occupancy_.data() + offsets_[m];
    const double* dv = delta_vth_v_.data() + offsets_[m];
    const std::size_t n = offsets_[m + 1] - offsets_[m];
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) acc += occ[i] * dv[i];
    cached_delta_[m] = acc;
    cached_delta_version_[m] = version_;
  }
  return cached_delta_[m];
}

std::vector<double> BatchEnsemble::delta_vth_all() const {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(member_count()));
  for (int m = 0; m < member_count(); ++m) out.push_back(delta_vth(m));
  return out;
}

std::vector<double> BatchEnsemble::occupancies(int member) const {
  const std::size_t m = index_of(member);
  return std::vector<double>(occupancy_.begin() + static_cast<std::ptrdiff_t>(
                                                      offsets_[m]),
                             occupancy_.begin() +
                                 static_cast<std::ptrdiff_t>(offsets_[m + 1]));
}

void BatchEnsemble::set_occupancies(int member,
                                    const std::vector<double>& occ) {
  const std::size_t m = index_of(member);
  if (occ.size() != offsets_[m + 1] - offsets_[m]) {
    throw std::invalid_argument(
        "BatchEnsemble::set_occupancies: size mismatch");
  }
  for (const double v : occ) {
    if (v < 0.0 || v > 1.0) {
      throw std::invalid_argument(
          "BatchEnsemble::set_occupancies: occupancy outside [0, 1]");
    }
  }
  std::copy(occ.begin(), occ.end(),
            occupancy_.begin() + static_cast<std::ptrdiff_t>(offsets_[m]));
  ++version_;
}

void BatchEnsemble::reset() {
  std::fill(occupancy_.begin(), occupancy_.end(), 0.0);
  ++version_;
}

}  // namespace ash::bti
