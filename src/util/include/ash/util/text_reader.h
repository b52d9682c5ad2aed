#pragma once

/// \file text_reader.h
/// The one reader of the project's line-oriented text formats (chip and
/// campaign checkpoints, FaultReport lines, DataLog CSV cells, the fleet
/// wire payloads, journal records and state snapshots, flight dumps, flag
/// values; DESIGN.md sec. 11 lists them).  Writers stay with their
/// formats; what a reader accepts is decided here, once:
///   - a line ends at '\n'; bytes after the last one are a torn line;
///   - tokens are separated by exactly one space (no empty token);
///   - an unsigned integer is decimal digits that fit 64 bits, an int an
///     optional '-' and digits within the caller's range;
///   - a number is a whole, finite `ash::parse_double` token;
///   - a keyed document holds every schema key exactly once, no other.
/// Malformed input goes to the reader's `Fail`, which throws the format's
/// own exception with its own prefix; the default throws ParseError.

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace ash::util {

class ParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Reports a malformed input by throwing; a Fail that returns is followed
/// by a thrown ParseError, so no reader continues past a failure.
using Fail = void (*)(const std::string& detail);

[[noreturn]] void throw_parse_error(const std::string& detail);

/// The whole token as a decimal u64 / int; nullopt otherwise.
std::optional<std::uint64_t> parse_u64(std::string_view token);
std::optional<int> parse_int(std::string_view token);

/// The remaining bytes of a stream.
std::string read_stream(std::istream& is);

/// A named token or value; each getter fails naming the field.
class Field {
 public:
  Field(std::string_view text, const char* name, Fail fail)
      : text_(text), name_(name), fail_(fail) {}

  std::string_view text() const { return text_; }
  std::uint64_t u64() const;
  int integer(int lo, int hi) const;
  double number() const;
  double number_in(double lo, double hi) const;
  bool flag() const;  ///< "0" or "1"

 private:
  [[noreturn]] void fail(const std::string& detail) const;

  std::string_view text_;
  const char* name_;
  Fail fail_;
};

/// The tokens of one line, front to back.
class Tokens {
 public:
  explicit Tokens(std::string_view line, Fail fail = throw_parse_error)
      : rest_(line), fail_(fail) {}

  /// Fails when the line is used up or the token is empty.
  Field next(const char* name);
  /// Fails when a token is left ("trailing 'x' on '<tag>'").
  void expect_end(std::string_view tag) const;

 private:
  std::string_view rest_;
  bool done_ = false;
  Fail fail_;
};

/// The lines of a text, front to back.
class LineCursor {
 public:
  explicit LineCursor(std::string_view text, Fail fail = throw_parse_error)
      : text_(text), fail_(fail) {}

  std::size_t offset() const { return pos_; }
  bool done() const { return pos_ == text_.size(); }
  /// The next line without its '\n'; fails past the end or on a torn line.
  std::string_view next_line();
  /// The value of the next line, which must be `<key> <value>`.
  Field keyed(const char* key);
  /// Exactly `n` raw bytes (a length-prefixed block).
  std::string_view take(std::uint64_t n);
  void expect_done() const;

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  Fail fail_;
};

/// `key value` lines (the value is the rest of the line), in any order.
class KeyedDoc {
 public:
  /// Empty; filled by add() and closed by expect_complete().
  KeyedDoc(std::initializer_list<const char*> schema,
           Fail fail = throw_parse_error);
  /// Every line of `text`, then expect_complete().
  KeyedDoc(std::string_view text, std::initializer_list<const char*> schema,
           Fail fail = throw_parse_error);

  /// Fails on an unknown or repeated key.
  void add(std::string_view line);
  bool has(std::string_view key) const;
  /// Fails naming the first schema key not yet added.
  void expect_complete() const;
  Field operator[](const char* key) const;

 private:
  static constexpr std::size_t kMaxKeys = 12;

  std::size_t index_of(std::string_view key) const;

  std::array<const char*, kMaxKeys> keys_{};
  std::array<std::string_view, kMaxKeys> values_{};
  std::size_t count_ = 0;
  std::uint32_t seen_ = 0;
  Fail fail_;
};

}  // namespace ash::util
