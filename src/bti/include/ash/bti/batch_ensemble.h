#pragma once

/// \file batch_ensemble.h
/// The batch-of-chips engine: a whole population of devices aged in
/// lockstep (DESIGN.md Sec. 13).
///
/// The paper's fleet-scale story (Fig. 10, Table 5) needs population
/// sweeps over 10^4..10^6 chips, but a `TrapEnsemble` per chip repays the
/// full rate computation per chip whenever the operating condition moves.
/// `BatchEnsemble` groups members into **trap classes** keyed by the seed
/// and the bits of every `TdParameters` field except `delta_vth_mean_v`
/// (bits, not `==`, so +0.0 / -0.0 and NaN fields never merge classes
/// that would compute different bits).  Classmates draw the same traps
/// and see the same conditions, so a class keeps **one occupancy row**,
/// stepped once per evolve: O(classes), not O(chips).
///
/// A member is one scalar, its mean.  `Rng::exponential(mean)` is
/// `-mean * log(u)` and its uniforms do not depend on the mean, so a class
/// draws once at mean 1 and keeps E_i = -log(u_i) (the negation is
/// exact): `mean * E_i` has the bits of the member's solo contribution i.
///
/// Exactness contract: classes draw through the solo `draw_traps`, each
/// row is stepped by a `TrapKinetics` core's one cache policy (6 rate
/// slots, as solo), and a member's DeltaVth sums occ_i * (mean * E_i) in
/// `TrapEnsemble::delta_vth`'s order, so a batch trajectory is bit-for-bit
/// N independent `TrapEnsemble` runs (tests/bti/batch_ensemble_test.cpp).
/// `set_occupancies` gives a member whose row others share a private row
/// (a *group* of one), copy-on-write; `reset` merges each class again.

#include <cstdint>
#include <vector>

#include "ash/bti/condition.h"
#include "ash/bti/parameters.h"
#include "ash/bti/trap_kinetics.h"

namespace ash::bti {

/// One member of a seeded population: the same (parameters, seed) pair a
/// solo `TrapEnsemble` would be built from.
struct BatchMemberSpec {
  TdParameters params;
  std::uint64_t seed = 0;
};

/// A population in compact form: member m is
/// `BatchMemberSpec{classes[trap_class[m]].params with delta_vth_mean_v =
/// means[m], classes[trap_class[m]].seed}`.  Each class spec is one trap
/// class; its own delta_vth_mean_v is not used.
struct BatchPopulation {
  std::vector<BatchMemberSpec> classes;
  std::vector<Volts> means;
  std::vector<int> trap_class;
};

/// A population of trap ensembles evolved in lockstep, one occupancy row
/// per kinetics class.  Value-semantic and deterministic like
/// `TrapEnsemble`.
class BatchEnsemble {
 public:
  /// Build a fresh population.  Equivalent to constructing
  /// `TrapEnsemble(specs[m].params, specs[m].seed)` for every member (and
  /// bit-identical to doing so — the members *are* those populations).
  /// The compact form over one class per class key.
  explicit BatchEnsemble(const std::vector<BatchMemberSpec>& specs);
  /// Validates every member's parameters as its solo constructor would,
  /// before any class is drawn.  std::invalid_argument also for an empty
  /// population, unequal lengths or a class index out of range.
  explicit BatchEnsemble(const BatchPopulation& population);

  /// Advance every member by dt under one shared operating condition.
  /// Validation is the core's `check_step`, run against every group
  /// before any state changes, so a throwing call leaves the population
  /// untouched.
  void evolve(const OperatingCondition& condition, Seconds dt);

  int member_count() const { return static_cast<int>(members_.size()); }
  /// Number of distinct trap classes.  A homogeneous-kinetics population
  /// has class_count() == 1 no matter how many members it holds.
  int class_count() const { return class_count_; }
  /// Number of occupancy rows an evolve advances: class_count() plus one
  /// per member that `set_occupancies` split off its class's row.
  int group_count() const { return static_cast<int>(groups_.size()); }
  /// Every per-member accessor throws std::out_of_range for a member
  /// outside [0, member_count()).
  int trap_count(int member) const;
  /// The class's parameters with member m's own delta_vth_mean_v.
  TdParameters parameters(int member) const;

  /// Member m's threshold-voltage shift: the sum of occ_i * (mean * E_i)
  /// over its group's row, in `TrapEnsemble::delta_vth`'s order.
  double delta_vth(int member) const;
  /// All members' shifts, ordered by member index: four members of one
  /// group per pass over the row, each with its own accumulator, so every
  /// value equals `delta_vth(m)` bit for bit.
  std::vector<double> delta_vth_all() const;

  /// Snapshot / restore of one member's occupancies (the checkpoint
  /// currency shared with `TrapEnsemble`).  `set_occupancies` validates
  /// size and [0, 1] range, gives the member a private row when others
  /// share its row, and bumps the state version.
  std::vector<double> occupancies(int member) const;
  void set_occupancies(int member, const std::vector<double>& occ);

  /// Restore the factory-fresh state (all traps of all members empty):
  /// every class is one shared row again.
  void reset();

  /// Monotonic population state version (same contract as
  /// `TrapEnsemble::state_version`).
  std::uint64_t state_version() const { return version_; }

 private:
  /// One occupancy row and the core that advances it.  Groups
  /// [0, class_count_) are the trap classes; later ones are private rows.
  struct Group {
    TrapKinetics kinetics;
    std::vector<double> unit_shifts;  ///< E_i = -log(u_i): draws at mean 1
    std::vector<double> occupancy;
    std::vector<int> members;
  };

  struct Member {
    double mean;     ///< delta_vth_mean_v in volts
    int trap_class;  ///< the group reset() returns it to
    int group;
  };

  static constexpr int kRateCacheSlots = 6;

  const Member& member_at(int member) const;
  const Group& group_of(int member) const;

  std::vector<Group> groups_;
  std::vector<Member> members_;
  int class_count_ = 0;
  std::uint64_t version_ = 0;
};

}  // namespace ash::bti
