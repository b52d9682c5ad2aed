#pragma once

/// \file flags.h
/// Tiny command-line flag parser for the library's tools.
///
/// Supports `--name value`, `--name=value` and boolean `--name`; leftover
/// words are positional arguments.  No registration step: call-site lookup
/// with typed accessors and defaults, plus an unknown-flag check so typos
/// fail loudly.

#include <string>
#include <vector>

namespace ash {

/// Parsed command line.
class Flags {
 public:
  /// Parse argv (argv[0] is skipped).  Throws std::invalid_argument on a
  /// malformed token (e.g. "--" with no name).
  Flags(int argc, const char* const* argv);

  /// True if --name appeared (with or without a value).
  bool has(const std::string& name) const;

  /// Typed accessors with defaults.  Throw std::invalid_argument when the
  /// flag is present but not parseable as the requested type: a number is
  /// a whole finite `ash::parse_double` token and an int a whole decimal
  /// token (util/text_reader.h), so " 5", "+5", "nan" and "inf" are refused.
  std::string get(const std::string& name,
                  const std::string& default_value) const;
  double get(const std::string& name, double default_value) const;
  int get(const std::string& name, int default_value) const;
  bool get(const std::string& name, bool default_value) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Throws std::invalid_argument if any flag is not in `known` —
  /// catches typos like --chp.
  void check_known(const std::vector<std::string>& known) const;

 private:
  const std::string* find(const std::string& name) const;

  std::vector<std::pair<std::string, std::string>> flags_;
  std::vector<std::string> positional_;
};

}  // namespace ash
