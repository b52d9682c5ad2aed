// Fixture: an allow() escape without a reason does not suppress.
#include <string>

int chip_id(const std::string& cell) {
  return std::stoi(cell);  // ash-lint: allow(lenient-parse)
}
