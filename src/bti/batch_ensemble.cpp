#include "ash/bti/batch_ensemble.h"

#include <algorithm>
#include <array>
#include <bit>
#include <map>
#include <stdexcept>

#include "ash/bti/trap_ensemble.h"
#include "ash/obs/profile.h"

namespace ash::bti {
namespace {

// 22 doubles and an int: a new TdParameters field must join class_key.
static_assert(sizeof(TdParameters) == 23 * sizeof(double));

using ClassKey = std::array<std::uint64_t, 23>;

/// The seed and the bits of every kinetics field: everything that decides
/// a member's traps and rates, without the mean that only scales them.
ClassKey class_key(const BatchMemberSpec& spec) {
  const TdParameters& p = spec.params;
  const auto b = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  return {spec.seed, static_cast<std::uint64_t>(p.traps_per_device),
          b(p.tau_capture_min_s.value()), b(p.tau_capture_max_s.value()),
          b(p.emission_ratio_log10_mu), b(p.emission_ratio_log10_sigma),
          b(p.permanent_fraction), b(p.stress_ref_voltage_v.value()),
          b(p.stress_ref_temp_k.value()), b(p.capture_field_accel_per_v),
          b(p.capture_ea_mean_ev), b(p.capture_ea_sigma_ev),
          b(p.capture_threshold_voltage_v.value()), b(p.amp_prefactor),
          b(p.amp_e0_ev), b(p.amp_b_ev_per_v),
          b(p.recovery_ref_voltage_v.value()),
          b(p.recovery_ref_temp_k.value()), b(p.emission_ea_mean_ev),
          b(p.emission_ea_sigma_ev), b(p.emission_neg_bias_accel_per_v),
          b(p.min_safe_voltage_v.value()), b(p.max_safe_temp_k.value())};
}

/// The specs in compact form, one class per key in order of first use.
BatchPopulation by_class(const std::vector<BatchMemberSpec>& specs) {
  BatchPopulation pop;
  std::map<ClassKey, int> index;
  for (const BatchMemberSpec& spec : specs) {
    const auto [it, fresh] = index.try_emplace(
        class_key(spec), static_cast<int>(pop.classes.size()));
    if (fresh) pop.classes.push_back(spec);
    pop.means.push_back(spec.params.delta_vth_mean_v);
    pop.trap_class.push_back(it->second);
  }
  return pop;
}

}  // namespace

BatchEnsemble::BatchEnsemble(const std::vector<BatchMemberSpec>& specs)
    : BatchEnsemble(by_class(specs)) {}

BatchEnsemble::BatchEnsemble(const BatchPopulation& pop) {
  const std::size_t n = pop.means.size();
  if (n == 0 || pop.trap_class.size() != n) {
    throw std::invalid_argument(
        n == 0 ? "BatchEnsemble: empty population"
               : "BatchEnsemble: means and class indices differ in length");
  }
  members_.reserve(n);
  for (std::size_t m = 0; m < n; ++m) {
    const int c = pop.trap_class[m];
    if (c < 0 || c >= static_cast<int>(pop.classes.size())) {
      throw std::invalid_argument("BatchEnsemble: class index out of range");
    }
    // Validated as the member's solo constructor would, before any draw.
    TdParameters p = pop.classes[static_cast<std::size_t>(c)].params;
    p.delta_vth_mean_v = pop.means[m];
    p.validate();
    members_.push_back({pop.means[m].value(), c, c});
  }
  for (const BatchMemberSpec& cls : pop.classes) {
    TdParameters unit = cls.params;
    unit.delta_vth_mean_v = Volts{1.0};  // E_i = -1 * log(u_i), exactly
    std::vector<double> shifts;
    TrapKinetics::Traps traps = draw_traps(unit, cls.seed, shifts);
    std::vector<double> empty(shifts.size(), 0.0);
    groups_.push_back({TrapKinetics(unit, std::move(traps), kRateCacheSlots),
                       std::move(shifts), std::move(empty), {}});
  }
  for (int m = 0; m < member_count(); ++m) {
    const Member& mem = members_[static_cast<std::size_t>(m)];
    groups_[static_cast<std::size_t>(mem.trap_class)].members.push_back(m);
  }
  class_count_ = group_count();
}

const BatchEnsemble::Member& BatchEnsemble::member_at(int member) const {
  if (member < 0 || member >= member_count()) {
    throw std::out_of_range("BatchEnsemble: member index out of range");
  }
  return members_[static_cast<std::size_t>(member)];
}

const BatchEnsemble::Group& BatchEnsemble::group_of(int member) const {
  return groups_[static_cast<std::size_t>(member_at(member).group)];
}

int BatchEnsemble::trap_count(int member) const {
  return static_cast<int>(group_of(member).occupancy.size());
}

TdParameters BatchEnsemble::parameters(int member) const {
  TdParameters p = group_of(member).kinetics.parameters();
  p.delta_vth_mean_v = Volts{member_at(member).mean};
  return p;
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
  const Group& g = groups_[static_cast<std::size_t>(mem.group)];
  // mean * E_i is the solo contribution i, bit for bit.
  double acc = 0.0;
  for (std::size_t i = 0; i < g.occupancy.size(); ++i) {
    acc += g.occupancy[i] * (mem.mean * g.unit_shifts[i]);
  }
  return acc;
}

std::vector<double> BatchEnsemble::delta_vth_all() const {
  constexpr std::size_t kLanes = 4;
  std::vector<double> out(members_.size());
  for (const Group& g : groups_) {
    // One pass over the row and its draws serves four members.  Each lane
    // keeps its own accumulator in trap order, so every sum is
    // delta_vth(m)'s.
    const std::vector<int>& m = g.members;
    std::size_t k = 0;
    for (; k + kLanes <= m.size(); k += kLanes) {
      double mean[kLanes];
      double acc[kLanes] = {};
      for (std::size_t l = 0; l < kLanes; ++l) {
        mean[l] = members_[static_cast<std::size_t>(m[k + l])].mean;
      }
      for (std::size_t i = 0; i < g.occupancy.size(); ++i) {
        for (std::size_t l = 0; l < kLanes; ++l) {
          acc[l] += g.occupancy[i] * (mean[l] * g.unit_shifts[i]);
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
  return group_of(member).occupancy;
}

void BatchEnsemble::set_occupancies(int member,
                                    const std::vector<double>& occ) {
  Group& shared = groups_[static_cast<std::size_t>(member_at(member).group)];
  TrapKinetics::check_occupancies(occ, shared.occupancy.size());
  if (shared.members.size() == 1) {
    shared.occupancy = occ;
  } else {
    // Copy-on-write: the member leaves the row it shares for a private one
    // with its own copy of the core.
    std::erase(shared.members, member);
    Group own{shared.kinetics, shared.unit_shifts, occ, {member}};
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
