#include "ash/bti/batch_ensemble.h"

#include <algorithm>
#include <stdexcept>

#include "ash/bti/trap_ensemble.h"
#include "ash/obs/profile.h"

namespace ash::bti {

BatchEnsemble::BatchEnsemble(const std::vector<BatchMemberSpec>& specs) {
  if (specs.empty()) {
    throw std::invalid_argument("BatchEnsemble: empty population");
  }
  for (const auto& spec : specs) {
    // Draw the member's population through the solo constructor: the batch
    // *is* those ensembles, which is what makes it bit-identical to them.
    const TrapEnsemble source(spec.params, spec.seed);
    // Class lookup: identical kinetics parameters *and* identical draws.
    // Two members built from the same seed and kinetics constants share
    // every draw (the per-trap DeltaVth scale consumes exactly one uniform
    // regardless of its mean, so the streams stay aligned); distinct seeds
    // diverge at the first trap, so the element compare fails fast.
    const auto cls = std::find_if(groups_.begin(), groups_.end(),
                                  [&](const Group& g) {
                                    return g.kinetics.same_kinetics(
                                        source.kinetics());
                                  });
    const auto c = static_cast<int>(cls - groups_.begin());
    if (cls == groups_.end()) {
      groups_.push_back({TrapKinetics(source.kinetics(), kRateCacheSlots),
                         source.occupancies(), {}});
    }
    groups_[static_cast<std::size_t>(c)].members.push_back(member_count());
    members_.push_back({source.parameters(), source.contributions(), c, c});
  }
  class_count_ = group_count();
}

const BatchEnsemble::Member& BatchEnsemble::member_at(int member) const {
  if (member < 0 || member >= member_count()) {
    throw std::out_of_range("BatchEnsemble: member index out of range");
  }
  return members_[static_cast<std::size_t>(member)];
}

int BatchEnsemble::trap_count(int member) const {
  return static_cast<int>(member_at(member).contributions.size());
}

const TdParameters& BatchEnsemble::parameters(int member) const {
  return member_at(member).params;
}

void BatchEnsemble::evolve(const OperatingCondition& c, Seconds dt) {
  const obs::ScopedTimer timer(
      obs::kernel_histogram(obs::Kernel::kBtiBatchEvolve));
  // Validate against every group before mutating anything: a throwing
  // evolve leaves the whole population untouched.  dt == 0 is a no-op.
  for (const Group& g : groups_) {
    if (!g.kinetics.check_step(c, dt)) return;
  }
  // No solo kernel timer here: the bti.trap_ensemble.evolve row counts
  // solo steps only.
  for (Group& g : groups_) g.kinetics.step(c, dt, g.occupancy.data());
  ++version_;
}

double BatchEnsemble::delta_vth(int member) const {
  const Member& mem = member_at(member);
  const double* occ =
      groups_[static_cast<std::size_t>(mem.group)].occupancy.data();
  const double* dv = mem.contributions.data();
  double acc = 0.0;
  for (std::size_t i = 0; i < mem.contributions.size(); ++i) {
    acc += occ[i] * dv[i];
  }
  return acc;
}

std::vector<double> BatchEnsemble::delta_vth_all() const {
  constexpr std::size_t kLanes = 4;
  std::vector<double> out(members_.size());
  for (const Group& g : groups_) {
    // One pass over the shared row serves four members.  Each lane keeps
    // its own accumulator in trap order, so every sum is delta_vth(m)'s.
    const std::vector<int>& m = g.members;
    std::size_t k = 0;
    for (; k + kLanes <= m.size(); k += kLanes) {
      const double* dv[kLanes];
      double acc[kLanes] = {};
      for (std::size_t l = 0; l < kLanes; ++l) {
        const Member& mem = members_[static_cast<std::size_t>(m[k + l])];
        dv[l] = mem.contributions.data();
      }
      for (std::size_t i = 0; i < g.occupancy.size(); ++i) {
        for (std::size_t l = 0; l < kLanes; ++l) {
          acc[l] += g.occupancy[i] * dv[l][i];
        }
      }
      for (std::size_t l = 0; l < kLanes; ++l) {
        out[static_cast<std::size_t>(m[k + l])] = acc[l];
      }
    }
    for (; k < m.size(); ++k) {
      out[static_cast<std::size_t>(m[k])] = delta_vth(m[k]);
    }
  }
  return out;
}

std::vector<double> BatchEnsemble::occupancies(int member) const {
  return groups_[static_cast<std::size_t>(member_at(member).group)].occupancy;
}

void BatchEnsemble::set_occupancies(int member,
                                    const std::vector<double>& occ) {
  const Member& mem = member_at(member);
  if (occ.size() != mem.contributions.size()) {
    throw std::invalid_argument(
        "BatchEnsemble::set_occupancies: size mismatch");
  }
  for (const double v : occ) {
    if (v < 0.0 || v > 1.0) {
      throw std::invalid_argument(
          "BatchEnsemble::set_occupancies: occupancy outside [0, 1]");
    }
  }
  Group& shared = groups_[static_cast<std::size_t>(mem.group)];
  if (shared.members.size() == 1) {
    shared.occupancy = occ;
  } else {
    // Copy-on-write: the member leaves the row it shares for a private one.
    std::erase(shared.members, member);
    Group own{TrapKinetics(shared.kinetics, kRateCacheSlots), occ, {member}};
    members_[static_cast<std::size_t>(member)].group = group_count();
    groups_.push_back(std::move(own));
  }
  ++version_;
}

void BatchEnsemble::reset() {
  // Every member is empty again, so each class is one shared row again.
  groups_.erase(groups_.begin() + class_count_, groups_.end());
  for (Group& g : groups_) {
    std::fill(g.occupancy.begin(), g.occupancy.end(), 0.0);
    g.members.clear();
  }
  for (int m = 0; m < member_count(); ++m) {
    Member& mem = members_[static_cast<std::size_t>(m)];
    mem.group = mem.trap_class;
    groups_[static_cast<std::size_t>(mem.group)].members.push_back(m);
  }
  ++version_;
}

}  // namespace ash::bti
