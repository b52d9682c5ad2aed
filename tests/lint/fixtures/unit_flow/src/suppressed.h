// Fixture: the same raw-double API surface, each line carrying a
// reasoned ash-lint escape.
#pragma once

#include <vector>

namespace fix {

struct Readout {
  double delay_s = 0.0;  // ash-lint: allow(unit-flow): fixture-sanctioned violation
  std::vector<double> periods_s;  // ash-lint: allow(unit-flow): fixture-sanctioned violation
};

double settle_time_s(int steps);  // ash-lint: allow(unit-flow): fixture-sanctioned violation

}  // namespace fix
