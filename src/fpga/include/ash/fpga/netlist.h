#pragma once

/// \file netlist.h
/// LUT-level netlists: the designs a user maps onto the virtual fabric.
///
/// The paper ages one fixed test structure (the RO of Fig. 3).  A library
/// users would adopt must age *their* designs: a `Netlist` describes an
/// arbitrary combinational circuit of 2-input LUTs (each followed by its
/// routing block), and `Fabric` (fabric.h) instantiates it with per-device
/// BTI state, workload-driven aging and aging-aware timing analysis.
///
/// Conventions: every net has a unique name; each net is driven either by
/// exactly one LUT output or by a primary input; the graph must be acyclic
/// (combinational).  `validate()` enforces all of it with precise errors.

#include <array>
#include <string>
#include <vector>

#include "ash/fpga/lut.h"

namespace ash::fpga {

/// One 2-input LUT instance.
struct LutNode {
  std::string name;    ///< instance name, e.g. "u3"
  LutConfig config{};  ///< truth table, indexed by 2*in1 + in0
  /// Input net names (in0, in1).  A LUT that ignores an input still names
  /// a net for it (tie it to any existing net).
  std::array<std::string, 2> inputs;
  std::string output;  ///< net driven by this LUT (via its routing block)
};

/// A combinational LUT netlist.
struct Netlist {
  std::string name;
  std::vector<std::string> primary_inputs;
  std::vector<LutNode> nodes;
  std::vector<std::string> primary_outputs;

  /// Throws std::invalid_argument with a descriptive message when the
  /// netlist is malformed: duplicate/undriven/multiply-driven nets,
  /// dangling references, combinational cycles, or missing outputs.
  void validate() const;

  /// Topological order of node indices (inputs before users).  Throws on
  /// cycles.  Stable: preserves declaration order among independents.
  std::vector<std::size_t> topological_order() const;
};

// --- Library of standard truth tables (indexed by 2*in1 + in0) -------------

constexpr LutConfig lut_and() { return {false, false, false, true}; }
constexpr LutConfig lut_or() { return {false, true, true, true}; }
constexpr LutConfig lut_xor() { return {false, true, true, false}; }
constexpr LutConfig lut_nand() { return {true, true, true, false}; }
constexpr LutConfig lut_xnor() { return {true, false, false, true}; }
constexpr LutConfig lut_not_a() { return {true, false, true, false}; }
constexpr LutConfig lut_buf_a() { return {false, true, false, true}; }

// --- Generators for common benchmark circuits ------------------------------

/// n-stage inverter chain: in -> u0 -> ... -> u(n-1) -> out.
Netlist inverter_chain(int stages);

/// Ripple-carry adder over two `bits`-wide operands a[i], b[i] with carry
/// in "cin"; outputs s[i] and "cout".  Built from 2-input LUTs (XOR/AND/OR
/// decomposition: 5 LUTs per full adder).
Netlist ripple_carry_adder(int bits);

/// ISCAS-85 c17: the classic 6-NAND benchmark (5 inputs, 2 outputs).
Netlist c17();

}  // namespace ash::fpga
