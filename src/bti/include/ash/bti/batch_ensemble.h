#pragma once

/// \file batch_ensemble.h
/// The batch-of-chips SoA engine: one fused aging pass over a whole
/// population of devices (DESIGN.md Sec. 13).
///
/// The paper's fleet-scale story (Fig. 10, Table 5) needs population
/// sweeps over 10^4..10^6 chips, but a `TrapEnsemble` per chip repays the
/// full rate computation — two exponentials and two divisions per trap —
/// once *per chip* whenever the operating condition moves (a drifting
/// chamber, a noisy campaign).  `BatchEnsemble` restructures the work
/// *across* devices: members are grouped into **trap classes** (identical
/// kinetics draws — same seed and same kinetics parameters; members of a
/// class may still differ in their per-trap DeltaVth contributions, which
/// is how per-chip corner/mismatch scales enter), and the per-condition
/// rates, equilibrium occupancies and decay factors are computed once per
/// (condition, trap-class) instead of once per chip.  What remains per
/// member is the fused occupancy update
///
///     occ[i] = p_inf[i] + (occ[i] - p_inf[i]) * decay[i]
///
/// over contiguous per-field arrays — one multiply-add sweep for the whole
/// population, optionally sharded over disjoint member ranges by a
/// `util::ThreadPool` (elementwise-independent, so bit-identical under any
/// scheduling; pinned by the tsan job).
///
/// Exactness contract: each trap class is a `TrapKinetics` core copied
/// from a member's solo ensemble, and its rates and decay factors come
/// from the same `entry_for` the solo ensemble's cache uses — the one rate
/// routine of the model — so a batch trajectory is bit-for-bit equal to N
/// independent `TrapEnsemble` runs (asserted for seeded 64-chip
/// populations, rate-cache eviction and pool sharding in
/// tests/bti/batch_ensemble_test.cpp).  Unlike the solo ensemble there is
/// no miss-twice promotion: a rate computation amortizes over every member
/// of its class, so every condition fills a slot of the 16-deep per-class
/// cache.

#include <cstdint>
#include <vector>

#include "ash/bti/condition.h"
#include "ash/bti/parameters.h"
#include "ash/bti/trap_ensemble.h"
#include "ash/bti/trap_kinetics.h"

namespace ash::util {
class ThreadPool;
}

namespace ash::bti {

/// One member of a seeded population: the same (parameters, seed) pair a
/// solo `TrapEnsemble` would be built from.
struct BatchMemberSpec {
  TdParameters params;
  std::uint64_t seed = 0;
};

/// Per-batch knobs.
struct BatchConfig {
  /// Optional worker pool for the occupancy apply sweep.  Null (or an
  /// inline pool) runs the sweep on the calling thread; results are
  /// bit-identical either way.
  util::ThreadPool* pool = nullptr;
};

/// A population of trap ensembles evolved in lockstep, one fused pass per
/// interval.  Value-semantic and deterministic like `TrapEnsemble`.
class BatchEnsemble {
 public:
  /// Build a fresh population.  Equivalent to constructing
  /// `TrapEnsemble(specs[m].params, specs[m].seed)` for every member (and
  /// bit-identical to doing so — the members *are* those populations).
  explicit BatchEnsemble(const std::vector<BatchMemberSpec>& specs,
                         const BatchConfig& config = {});

  /// Advance every member by dt under one shared operating condition.
  /// Validation is the core's `check_step`, run against every trap class
  /// before any state changes, so a throwing call leaves the population
  /// untouched.
  void evolve(const OperatingCondition& condition, Seconds dt);

  int member_count() const { return static_cast<int>(member_params_.size()); }
  /// Number of distinct trap classes (rate computations per condition).
  /// A homogeneous-kinetics population has class_count() == 1 no matter
  /// how many members it holds.
  int class_count() const { return static_cast<int>(classes_.size()); }
  /// Every per-member accessor throws std::out_of_range for a member
  /// outside [0, member_count()).
  int trap_count(int member) const;
  const TdParameters& parameters(int member) const;

  /// Member m's threshold-voltage shift, computed with the exact reduction
  /// order of `TrapEnsemble::delta_vth` and cached per member between
  /// state changes.
  double delta_vth(int member) const;
  /// All members' shifts, ordered by member index.
  std::vector<double> delta_vth_all() const;

  /// Snapshot / restore of one member's occupancies (the checkpoint
  /// currency shared with `TrapEnsemble`).  `set_occupancies` validates
  /// size and [0, 1] range and bumps the state version.
  std::vector<double> occupancies(int member) const;
  void set_occupancies(int member, const std::vector<double>& occ);

  /// Restore the factory-fresh state (all traps of all members empty).
  void reset();

  /// Monotonic population state version (same contract as
  /// `TrapEnsemble::state_version`).
  std::uint64_t state_version() const { return version_; }

  const BatchConfig& config() const { return config_; }

 private:
  /// One kinetics equivalence class: members sharing identical kinetics
  /// draws and kinetics parameters, and the core that computes their rates.
  struct TrapClass {
    TrapKinetics kinetics;
    std::vector<int> members;
  };

  static constexpr int kRateCacheSlots = 16;

  void adopt_member(const TrapEnsemble& source);
  std::size_t index_of(int member) const;
  void apply_members(int lo, int hi);

  BatchConfig config_;

  std::vector<TrapClass> classes_;
  std::vector<TdParameters> member_params_;

  // --- population state, structure-of-arrays across members --------------
  /// Member m's traps live at [offsets_[m], offsets_[m + 1]).
  std::vector<std::size_t> offsets_{0};
  std::vector<double> delta_vth_v_;
  std::vector<double> occupancy_;

  /// Per-member pointers into the active rate entries, rebuilt each evolve
  /// before the apply sweep (kept as a member to avoid per-call allocs).
  std::vector<const TrapKinetics::RateEntry*> active_entry_;

  std::uint64_t version_ = 0;
  mutable std::vector<double> cached_delta_;
  mutable std::vector<std::uint64_t> cached_delta_version_;
};

}  // namespace ash::bti
