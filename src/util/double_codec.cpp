#include "ash/util/double_codec.h"

#include <charconv>
#include <cmath>
#include <system_error>

namespace ash {

std::string fmt_double(double v) {
  // 24 characters hold the longest shortest form ("-2.2250738585072014e-308").
  char buf[32];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

void append_g17(std::string& out, double v) {
  // 24 characters hold the longest "%.17g" ("-2.2250738585072014e-308").
  char buf[32];
  const std::to_chars_result r = std::to_chars(
      buf, buf + sizeof buf, v, std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

std::optional<double> parse_double(std::string_view text) {
  double v = 0.0;
  const char* const last = text.data() + text.size();
  const std::from_chars_result r = std::from_chars(text.data(), last, v);
  if (r.ec != std::errc() || r.ptr != last || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

}  // namespace ash
