// Fixture: strict whole-token readers, and names that only look like the
// lenient ones ("std::stod" in a comment or a string is no call).
#include <optional>
#include <string>
#include <string_view>

namespace ash {
std::optional<double> parse_double(std::string_view text);
namespace util {
std::optional<int> parse_int(std::string_view token);
}  // namespace util
}  // namespace ash

struct Restore {
  int restore(int v) { return v; }
  int store(int v) { return v; }
};

int chip_id(std::string_view cell) {
  const std::optional<int> v = ash::util::parse_int(cell);
  return v ? *v : -1;
}

double chamber_c(std::string_view cell) {
  const char* note = "never std::stod(cell) or strtod(p, &end)";
  (void)note;
  Restore r;
  return ash::parse_double(cell).value_or(r.restore(r.store(0)));
}
