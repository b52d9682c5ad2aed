#include "ash/util/flags.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "ash/util/double_codec.h"
#include "ash/util/text_reader.h"

namespace ash {

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      positional_.push_back(token);
      continue;
    }
    const std::string body = token.substr(2);
    if (body.empty()) {
      throw std::invalid_argument("flags: bare '--' is not a flag");
    }
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_.emplace_back(body.substr(0, eq), body.substr(eq + 1));
      continue;
    }
    // "--name value" when the next token is not itself a flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_.emplace_back(body, argv[i + 1]);
      ++i;
    } else {
      flags_.emplace_back(body, "");  // boolean form
    }
  }
}

const std::string* Flags::find(const std::string& name) const {
  for (const auto& [key, value] : flags_) {
    if (key == name) return &value;
  }
  return nullptr;
}

bool Flags::has(const std::string& name) const {
  return find(name) != nullptr;
}

std::string Flags::get(const std::string& name,
                       const std::string& default_value) const {
  const auto* v = find(name);
  return v != nullptr ? *v : default_value;
}

double Flags::get(const std::string& name, double default_value) const {
  const auto* v = find(name);
  if (v == nullptr) return default_value;
  if (const std::optional<double> out = parse_double(*v)) return *out;
  throw std::invalid_argument("flags: --" + name + " expects a number, got '" +
                              *v + "'");
}

int Flags::get(const std::string& name, int default_value) const {
  const auto* v = find(name);
  if (v == nullptr) return default_value;
  if (const std::optional<int> out = util::parse_int(*v)) return *out;
  throw std::invalid_argument("flags: --" + name +
                              " expects an integer, got '" + *v + "'");
}

bool Flags::get(const std::string& name, bool default_value) const {
  const auto* v = find(name);
  if (v == nullptr) return default_value;
  if (v->empty() || *v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  throw std::invalid_argument("flags: --" + name + " expects a boolean, got '" +
                              *v + "'");
}

void Flags::check_known(const std::vector<std::string>& known) const {
  for (const auto& [key, value] : flags_) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      throw std::invalid_argument("flags: unknown flag --" + key);
    }
  }
}

}  // namespace ash
