#pragma once

/// \file trap_ensemble.h
/// The stochastic Trapping/Detrapping model: an ensemble of oxide traps per
/// device.
///
/// This is the ground-truth physics layer of the reproduction (the stand-in
/// for the paper's actual 40 nm silicon).  Its macroscopic behaviour —
/// log(1+Ct) stress growth, amplitude ∝ phi(V,T), fast-then-log partial
/// recovery, AC ≈ ½ DC — *emerges* from the microscopic trap kinetics; the
/// paper's closed-form Eqs. (1)–(4) are then fit against it exactly as the
/// authors fit their equations against chip measurements.
///
/// The rate law and its caches live in the shared kinetics core
/// (`TrapKinetics`, DESIGN.md Sec. 8); an ensemble is a class of one: a
/// core plus per-trap DeltaVth contributions and occupancies.  The core's
/// one cache policy (`TrapKinetics::step`) runs every evolve: a one-shot
/// condition (a drifting chamber, every interval unique) takes the
/// store-free transient step, and a condition missing twice in a row is
/// promoted into the 6-slot rate cache, after which a repeat of the same
/// (condition, dt) is one exp-free multiply-add sweep.  Trajectories stay bit-identical to the historical
/// per-trap loop (tests/perf/golden_trajectory_test.cpp).

#include <cstdint>
#include <vector>

#include "ash/bti/condition.h"
#include "ash/bti/parameters.h"
#include "ash/bti/trap_kinetics.h"

namespace ash::bti {

/// Ensemble of traps belonging to one transistor's gate oxide.
///
/// Value-semantic: copying an ensemble snapshots the full degradation state
/// (used by the what-if planner).  Deterministic: the trap population is a
/// pure function of (parameters, seed).
class TrapEnsemble {
 public:
  /// Build a fresh (unstressed) device.  `seed` individualizes the trap
  /// population — two devices with different seeds age statistically alike
  /// but not identically, which is how chip-to-chip variation on aging
  /// enters the virtual fabric.
  TrapEnsemble(const TdParameters& params, std::uint64_t seed);

  /// Advance the device by dt seconds under a constant operating condition.
  /// Stress intervals capture (and, for AC duty < 1, concurrently emit
  /// during the unbiased half-cycles); recovery intervals only emit, at a
  /// rate accelerated by temperature and negative bias.  Invalid input
  /// (`TrapKinetics::check_step`) throws std::invalid_argument before any
  /// state changes; dt == 0 is a no-op.
  void evolve(const OperatingCondition& condition, Seconds dt);

  /// Current threshold-voltage shift (volts): dot product of occupancies
  /// and per-trap contributions.  Cached between state changes, so
  /// repeated reads after the same aging step are O(1).
  double delta_vth() const;

  /// Shift carried by permanent (never-recoverable) traps only.
  double permanent_delta_vth() const;

  /// Upper bound on the shift if every trap were occupied.
  double max_delta_vth() const;

  /// Restore the factory-fresh state (all traps empty).
  void reset();

  int trap_count() const { return static_cast<int>(occupancy_.size()); }
  const TdParameters& parameters() const { return core_.parameters(); }

  /// The kinetics core (trap draws and rate caches).  `BatchEnsemble`
  /// copies it once per kinetics class, so a batch evolves the *same*
  /// drawn population a solo ensemble would (DESIGN.md Sec. 13).
  const TrapKinetics& kinetics() const { return core_; }
  /// Per-trap threshold-voltage contributions (volts), trap_count() long.
  const std::vector<double>& contributions() const { return delta_vth_v_; }

  /// Snapshot / restore of the mutable state (occupancies), for
  /// checkpointing long campaigns.  `set_occupancies` requires a vector of
  /// exactly trap_count() values in [0, 1], and — like `evolve` and
  /// `reset` — invalidates every cached derived quantity (the delta_vth
  /// dot product here, delay caches in the fpga layer via the version
  /// counter), so a checkpoint rewind is immediately visible to readers.
  std::vector<double> occupancies() const;
  void set_occupancies(const std::vector<double>& occ);

  /// Monotonic state-change counter: bumped by every `evolve` (with
  /// dt > 0), `set_occupancies` and `reset`.  Higher layers (fpga delay
  /// caches) use it as a cheap dirty flag: equal versions guarantee the
  /// occupancies — and anything derived from them — are unchanged.
  std::uint64_t state_version() const { return version_; }

 private:
  static constexpr int kRateCacheSlots = 6;

  // Declared before core_: the constructor draws the contributions while
  // building the core, in the historical per-trap draw order.
  std::vector<double> delta_vth_v_;
  TrapKinetics core_;
  std::vector<double> occupancy_;

  std::uint64_t version_ = 0;
  mutable double cached_delta_vth_ = 0.0;
  mutable std::uint64_t cached_delta_version_ = ~std::uint64_t{0};
};

}  // namespace ash::bti
