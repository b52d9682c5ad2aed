// Fixture: a deliberately lenient reader carries the allow() escape.
#include <cstdlib>
#include <string>

double best_effort(const std::string& cell) {
  return std::strtod(cell.c_str(), nullptr);  // ash-lint: allow(lenient-parse): fixture-sanctioned violation
}
