#pragma once

/// \file fabric.h
/// A netlist mapped onto the virtual fabric: per-device BTI state,
/// workload-driven aging, and aging-aware static timing analysis.
///
/// This is the generalization of the paper's RO experiment to arbitrary
/// combinational designs: the same bias-derived stress rules that put
/// {M1, M5} under stress in the Fig. 2 example decide, for *every* LUT of
/// the user's circuit and *every* workload vector, which devices wear out.
/// The timing view then answers the engineering question the paper's
/// margins discussion raises: how much has *my design's* critical path
/// drifted, and what does a rejuvenation schedule buy it?

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ash/bti/condition.h"
#include "ash/bti/parameters.h"
#include "ash/fpga/delay.h"
#include "ash/fpga/lut.h"
#include "ash/fpga/netlist.h"
#include "ash/fpga/routing.h"

namespace ash::fpga {

/// Fabric construction parameters.
struct FabricConfig {
  std::uint64_t seed = 0xFAB;
  /// Lognormal sigma of per-instance delay mismatch.
  double mismatch_sigma = 0.05;
  DelayParams delay;
  bti::TdParameters td = bti::default_td_parameters();
  /// PBTI/NBTI amplitude ratio (see td_for_device in transistor.h).
  double pbti_amplitude_ratio = 1.0;
};

/// Net values for evaluation / DC aging: net name -> logic value.
using NetValues = std::unordered_map<std::string, bool>;

/// Signal probabilities: net name -> P(net = 1).
using NetProbabilities = std::unordered_map<std::string, double>;

/// Aging-aware timing report.
struct TimingReport {
  /// Worst primary-output arrival time.
  Seconds worst_arrival_s{0.0};
  /// The primary output that sets it.
  std::string critical_output;
  /// Instance names along the critical path, inputs first.
  std::vector<std::string> critical_path;
  /// Arrival time per primary output.
  std::unordered_map<std::string, double> arrival_s;
};

/// A design instantiated with aging state.
class Fabric {
 public:
  /// Validates the netlist and builds one LUT + routing block per node.
  Fabric(Netlist netlist, const FabricConfig& config);

  const Netlist& netlist() const { return netlist_; }

  /// Evaluate every net for the given primary-input assignment (all
  /// primary inputs must be present).  Returns values for all nets.
  NetValues evaluate(const NetValues& primary_inputs) const;

  /// DC aging: hold the given primary-input vector for dt seconds under
  /// the stress environment.  Each LUT/routing block stresses exactly the
  /// devices its local input values sensitize.
  void age_static(const NetValues& primary_inputs,
                  const bti::OperatingCondition& env, Seconds dt);

  /// AC aging: all nets toggling at the condition's duty for dt seconds.
  void age_toggling(const bti::OperatingCondition& env, Seconds dt);

  /// Propagate primary-input signal probabilities through the netlist
  /// (independent-signal approximation, exact per LUT over its four input
  /// combinations).  All primary inputs must be present with values in
  /// [0, 1].
  NetProbabilities propagate_probabilities(
      const NetProbabilities& primary_input_probs) const;

  /// Probabilistic workload aging: each device's stress duty is its exact
  /// stress probability under the propagated signal statistics (times the
  /// condition's duty).  This is the EDA-style alternative to enumerating
  /// workload vectors: a whole mission profile in one call.  Inputs with
  /// probability 0/1 reproduce age_static; 0.5 everywhere approaches
  /// age_toggling's uniform wear.
  void age_probabilistic(const NetProbabilities& primary_input_probs,
                         const bti::OperatingCondition& env, Seconds dt);

  /// Sleep/rejuvenation: every device sees the recovery bias.
  void age_sleep(const bti::OperatingCondition& env, Seconds dt);

  /// Worst-case (vector-independent) static timing at the current aging
  /// state: per-node delay is the max conducting-path delay over the four
  /// input combinations, arrivals propagate topologically.
  TimingReport timing(Volts vdd, Kelvin temp) const;

  /// Access to a node's LUT / routing (by instance name) for inspection.
  const PassTransistorLut2& lut_of(const std::string& instance) const;
  const RoutingBlock& routing_of(const std::string& instance) const;

 private:
  std::size_t index_of(const std::string& instance) const;

  Netlist netlist_;
  FabricConfig config_;
  std::vector<std::size_t> topo_;
  std::vector<PassTransistorLut2> luts_;
  std::vector<RoutingBlock> routings_;
  std::unordered_map<std::string, std::size_t> instance_index_;
};

}  // namespace ash::fpga
