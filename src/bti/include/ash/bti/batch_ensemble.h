#pragma once

/// \file batch_ensemble.h
/// The batch-of-chips engine: a whole population of devices aged in
/// lockstep (DESIGN.md Sec. 13).
///
/// The paper's fleet-scale story (Fig. 10, Table 5) needs population
/// sweeps over 10^4..10^6 chips, but a `TrapEnsemble` per chip repays the
/// full rate computation — two exponentials and two divisions per trap —
/// once *per chip* whenever the operating condition moves (a drifting
/// chamber, a noisy campaign).  `BatchEnsemble` restructures the work
/// *across* devices: members are grouped into **trap classes** (identical
/// kinetics draws — same seed and same kinetics parameters; members of a
/// class may still differ in their per-trap DeltaVth contributions, which
/// is how per-chip corner/mismatch scales enter).  Members of a class
/// start empty and see the same conditions, so their occupancies are
/// equal at every step: the class keeps **one occupancy row**, advanced
/// once per step the way a solo ensemble advances its own, and what stays
/// per member is its contributions vector.  An evolve costs O(classes),
/// not O(chips).
///
/// The row is shared copy-on-write: `set_occupancies` on a member whose
/// row others share moves it to a private row (a *group* of one), and
/// `reset` merges every class back into one row.
///
/// Exactness contract: each group is a `TrapKinetics` core copied from a
/// member's solo ensemble plus an occupancy row, under the solo
/// ensemble's policy (6 rate slots; a condition missing twice in a row is
/// promoted into the cache, a one-shot condition takes the store-free
/// transient step), and a member's DeltaVth is the dot product of its
/// group's row with its own contributions in `TrapEnsemble::delta_vth`'s
/// order.  A batch trajectory is therefore bit-for-bit equal to N
/// independent `TrapEnsemble` runs (asserted for seeded 64-chip
/// populations, rate-cache eviction and copy-on-write divergence in
/// tests/bti/batch_ensemble_test.cpp).

#include <cstdint>
#include <optional>
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

/// A population of trap ensembles evolved in lockstep, one occupancy row
/// per kinetics class.  Value-semantic and deterministic like
/// `TrapEnsemble`.
class BatchEnsemble {
 public:
  /// Build a fresh population.  Equivalent to constructing
  /// `TrapEnsemble(specs[m].params, specs[m].seed)` for every member (and
  /// bit-identical to doing so — the members *are* those populations).
  explicit BatchEnsemble(const std::vector<BatchMemberSpec>& specs);

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
  const TdParameters& parameters(int member) const;

  /// Member m's threshold-voltage shift: the dot product of its group's
  /// row with its contributions, in `TrapEnsemble::delta_vth`'s order.
  double delta_vth(int member) const;
  /// All members' shifts, ordered by member index: four members of one
  /// group per pass over its row, each with its own accumulator, so every
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
    std::vector<double> occupancy;
    std::vector<int> members;
    /// The most recent rate-cache miss, unless it was just promoted (the
    /// solo ensemble's miss-twice rule).
    std::optional<OperatingCondition> last_miss;

    void advance(const OperatingCondition& condition, Seconds dt);
  };

  struct Member {
    TdParameters params;
    std::vector<double> contributions;
    int trap_class;  ///< the group reset() returns it to
    int group;
  };

  static constexpr int kRateCacheSlots = 6;

  const Member& member_at(int member) const;

  std::vector<Group> groups_;
  std::vector<Member> members_;
  int class_count_ = 0;
  std::uint64_t version_ = 0;
};

}  // namespace ash::bti
