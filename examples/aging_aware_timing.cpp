/// aging_aware_timing — aging-aware static timing analysis of a mapped
/// design.
///
/// Maps a 4-bit ripple-carry adder onto the virtual fabric, runs it under
/// a *biased* workload for a month (real workloads are not 50 % duty on
/// every net — some operands sit at constants), and shows what the paper's
/// margins discussion means for a concrete design: which path drifted,
/// by how much, and what one deep-rejuvenation sleep buys back.
///
/// Usage: ./build/examples/aging_aware_timing [days]
/// (default 30; a malformed argument prints the usage and exits 2)

#include <cstdio>
#include <optional>
#include <string>

#include "ash/fpga/fabric.h"
#include "ash/util/constants.h"
#include "ash/util/double_codec.h"
#include "ash/util/table.h"

namespace {

std::string path_string(const std::vector<std::string>& path) {
  std::string s;
  for (const auto& p : path) {
    if (!s.empty()) s += " > ";
    s += p;
  }
  return s;
}

void report(const char* label, const ash::fpga::Fabric& fab, double fresh_s) {
  const auto t = fab.timing(ash::Volts{1.2}, ash::Kelvin{ash::celsius(60.0)});
  std::printf("%-28s worst arrival %7.3f ns (%+5.2f%%)  critical: %s via %s\n",
              label, t.worst_arrival_s.value() * 1e9,
              100.0 * (t.worst_arrival_s.value() / fresh_s - 1.0),
              t.critical_output.c_str(), path_string(t.critical_path).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ash;
  const std::optional<double> days_arg =
      argc > 1 ? parse_double(argv[1]) : 30.0;
  if (argc > 2 || !days_arg) {
    std::fprintf(stderr, "usage: aging_aware_timing [days]\n");
    return 2;
  }
  const double days = *days_arg;

  fpga::FabricConfig cfg;
  cfg.seed = 7;
  fpga::Fabric fab(fpga::ripple_carry_adder(4), cfg);
  const double fresh =
      fab.timing(Volts{1.2}, Kelvin{celsius(60.0)}).worst_arrival_s.value();
  report("fresh", fab, fresh);

  // A biased mission workload at 60 degC: operand A is a live data path
  // (toggling), operand B is a configuration constant (0xA pattern), carry
  // in tied low.  Model: alternate an hour of toggling activity with an
  // hour parked on the static vector.
  fpga::NetValues parked{{"cin", false}};
  for (int i = 0; i < 4; ++i) {
    parked[strformat("a%d", i)] = false;
    parked[strformat("b%d", i)] = (0xA >> i) & 1;
  }
  const auto active = bti::ac_stress(Volts{1.2}, Celsius{60.0});
  const auto idle_dc = bti::dc_stress(Volts{1.2}, Celsius{60.0});
  for (int h = 0; h < static_cast<int>(days * 24.0); h += 2) {
    fab.age_toggling(active, Seconds{hours(1.0)});
    fab.age_static(parked, idle_dc, Seconds{hours(1.0)});
  }
  report(strformat("after %.0f days of mission", days).c_str(), fab, fresh);

  // One scheduled deep-rejuvenation sleep: 110 degC, -0.3 V, 6 h.
  fab.age_sleep(bti::recovery(Volts{-0.3}, Celsius{110.0}), Seconds{hours(6.0)});
  report("after one 6 h deep sleep", fab, fresh);

  std::printf(
      "\nPer-output drift shows the workload bias (parked bits age their\n"
      "sensitized devices only):\n");
  Table t({"output", "fresh (ns)", "aged (ns)", "healed (ns)"});
  fpga::Fabric fresh_fab(fpga::ripple_carry_adder(4), cfg);
  const auto fresh_t = fresh_fab.timing(Volts{1.2}, Kelvin{celsius(60.0)});
  const auto healed_t = fab.timing(Volts{1.2}, Kelvin{celsius(60.0)});
  fpga::Fabric aged_fab(fpga::ripple_carry_adder(4), cfg);
  for (int h = 0; h < static_cast<int>(days * 24.0); h += 2) {
    aged_fab.age_toggling(active, Seconds{hours(1.0)});
    aged_fab.age_static(parked, idle_dc, Seconds{hours(1.0)});
  }
  const auto aged_t = aged_fab.timing(Volts{1.2}, Kelvin{celsius(60.0)});
  for (const auto& po : fab.netlist().primary_outputs) {
    t.add_row({po, fmt_fixed(fresh_t.arrival_s.at(po) * 1e9, 3),
               fmt_fixed(aged_t.arrival_s.at(po) * 1e9, 3),
               fmt_fixed(healed_t.arrival_s.at(po) * 1e9, 3)});
  }
  std::printf("%s", t.render().c_str());
  return 0;
}
