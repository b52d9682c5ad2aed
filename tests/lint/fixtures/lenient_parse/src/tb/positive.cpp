// Fixture: four hand-rolled readers of persisted text, each deciding its
// own grammar — " 5", "+5", "5x", "0x10", "nan" and 2^64 all slip through
// one or another of them.
#include <cstdlib>
#include <sstream>
#include <string>

double chamber_c(const std::string& cell) { return std::stod(cell); }

unsigned long long sequence(const std::string& digits) {
  return std::strtoull(digits.c_str(), nullptr, 10);
}

int chip_id(const char* text) { return atoi(text); }

int retries(const std::string& line) {
  std::istringstream is(line);
  int n = 0;
  is >> n;
  return n;
}
