/// Tests for signal-probability propagation and probabilistic aging —
/// the EDA-style mission-profile analysis on the mapped fabric.

#include <gtest/gtest.h>

#include "ash/fpga/fabric.h"
#include "ash/util/constants.h"

namespace ash::fpga {
namespace {

Fabric make_fabric(Netlist nl, std::uint64_t seed = 1) {
  FabricConfig c;
  c.seed = seed;
  return Fabric(std::move(nl), c);
}

Netlist and_gate() {
  Netlist nl;
  nl.name = "and1";
  nl.primary_inputs = {"a", "b"};
  nl.nodes = {{"u0", lut_and(), {"a", "b"}, "out"}};
  nl.primary_outputs = {"out"};
  return nl;
}

TEST(ProbabilisticAging, AndGateProbabilityIsProduct) {
  const auto fab = make_fabric(and_gate());
  const auto p = fab.propagate_probabilities({{"a", 0.5}, {"b", 0.25}});
  EXPECT_NEAR(p.at("out"), 0.125, 1e-12);
}

TEST(ProbabilisticAging, XorGateProbability) {
  Netlist nl = and_gate();
  nl.nodes[0].config = lut_xor();
  const auto fab = make_fabric(std::move(nl));
  const auto p = fab.propagate_probabilities({{"a", 0.3}, {"b", 0.6}});
  // P(xor) = p(1-q) + (1-p)q.
  EXPECT_NEAR(p.at("out"), 0.3 * 0.4 + 0.7 * 0.6, 1e-12);
}

TEST(ProbabilisticAging, PropagatesThroughDepth) {
  // c17 with all inputs at 0.5: every NAND of independent 0.5 inputs is
  // 0.75 at its output; deeper nodes mix accordingly.
  const auto fab = make_fabric(c17());
  NetProbabilities pi;
  for (const auto& name : fab.netlist().primary_inputs) pi[name] = 0.5;
  const auto p = fab.propagate_probabilities(pi);
  EXPECT_NEAR(p.at("n10"), 0.75, 1e-12);
  EXPECT_NEAR(p.at("n11"), 0.75, 1e-12);
  // n16 = !(n2 & n11) with p(n2)=0.5, p(n11)=0.75.
  EXPECT_NEAR(p.at("n16"), 1.0 - 0.5 * 0.75, 1e-12);
  for (const auto& [net, prob] : p) {
    EXPECT_GE(prob, 0.0) << net;
    EXPECT_LE(prob, 1.0) << net;
  }
}

TEST(ProbabilisticAging, ValidatesInputs) {
  const auto fab = make_fabric(and_gate());
  EXPECT_THROW(fab.propagate_probabilities({{"a", 0.5}}),
               std::invalid_argument);
  EXPECT_THROW(fab.propagate_probabilities({{"a", 1.5}, {"b", 0.5}}),
               std::invalid_argument);
}

TEST(ProbabilisticAging, DegenerateProbabilitiesMatchStaticAging) {
  // P(in) in {0,1} must reproduce age_static exactly (same per-device
  // duties, same conditions).
  auto prob_fab = make_fabric(and_gate(), 9);
  auto static_fab = make_fabric(and_gate(), 9);
  const auto env = bti::dc_stress(Volts{1.2}, Celsius{110.0});
  prob_fab.age_probabilistic({{"a", 1.0}, {"b", 1.0}}, env, Seconds{hours(24.0)});
  static_fab.age_static({{"a", true}, {"b", true}}, env, Seconds{hours(24.0)});
  for (int d = 0; d < kLutDeviceCount; ++d) {
    EXPECT_NEAR(prob_fab.lut_of("u0").device(d).delta_vth(),
                static_fab.lut_of("u0").device(d).delta_vth(), 1e-9)
        << "device " << d;
  }
  for (int d = 0; d < kRoutingDeviceCount; ++d) {
    EXPECT_NEAR(prob_fab.routing_of("u0").device(d).delta_vth(),
                static_fab.routing_of("u0").device(d).delta_vth(), 1e-9)
        << "routing device " << d;
  }
}

TEST(ProbabilisticAging, BiasedInputsAgeAsymmetrically) {
  // a mostly-1 workload stresses the 1-sensitized devices harder.
  auto mostly1 = make_fabric(and_gate(), 3);
  auto mostly0 = make_fabric(and_gate(), 3);
  const auto env = bti::dc_stress(Volts{1.2}, Celsius{110.0});
  mostly1.age_probabilistic({{"a", 0.95}, {"b", 0.95}}, env, Seconds{hours(24.0)});
  mostly0.age_probabilistic({{"a", 0.05}, {"b", 0.05}}, env, Seconds{hours(24.0)});
  // Routing carries out=AND: mostly 1 vs mostly 0 — R1N vs R1P asymmetry
  // flips between the two workloads.
  EXPECT_GT(mostly1.routing_of("u0").device(kR1N).delta_vth(),
            mostly1.routing_of("u0").device(kR1P).delta_vth());
  EXPECT_LT(mostly0.routing_of("u0").device(kR1N).delta_vth(),
            mostly0.routing_of("u0").device(kR1P).delta_vth());
}

TEST(ProbabilisticAging, IntermediateProbabilitiesAgeBetweenExtremes) {
  auto p50 = make_fabric(and_gate(), 5);
  auto p100 = make_fabric(and_gate(), 5);
  const auto env = bti::dc_stress(Volts{1.2}, Celsius{110.0});
  p50.age_probabilistic({{"a", 0.5}, {"b", 0.5}}, env, Seconds{hours(24.0)});
  p100.age_probabilistic({{"a", 1.0}, {"b", 1.0}}, env, Seconds{hours(24.0)});
  // M1 is stressed only in the (1,1) corner for the AND config... its duty
  // under p=0.5 is a quarter of the p=1 duty, so it ages strictly less.
  const double d50 = p50.lut_of("u0").device(kM1).delta_vth();
  const double d100 = p100.lut_of("u0").device(kM1).delta_vth();
  if (d100 > 0.0) {
    EXPECT_LT(d50, d100);
  }
  // Whole-LUT wear is also bounded by the DC extreme.
  EXPECT_LE(p50.lut_of("u0").max_delta_vth(),
            p100.lut_of("u0").max_delta_vth() * 1.5);
}

TEST(ProbabilisticAging, TimingDriftFollowsWorkloadBias) {
  // A month of a biased mission profile on the adder in one call.
  FabricConfig cfg;
  cfg.seed = 7;
  Fabric fab(ripple_carry_adder(2), cfg);
  const double fresh = fab.timing(Volts{1.2}, Kelvin{celsius(60.0)}).worst_arrival_s.value();
  NetProbabilities pi{{"cin", 0.1}};
  for (int i = 0; i < 2; ++i) {
    const std::string index = std::to_string(i);
    pi["a" + index] = 0.5;
    pi["b" + index] = 0.9;
  }
  fab.age_probabilistic(pi, bti::dc_stress(Volts{1.2}, Celsius{80.0}), Seconds{hours(24.0 * 30)});
  const double aged = fab.timing(Volts{1.2}, Kelvin{celsius(60.0)}).worst_arrival_s.value();
  EXPECT_GT(aged, fresh * 1.001);
}

}  // namespace
}  // namespace ash::fpga
