#include "ash/util/text_reader.h"

#include <charconv>
#include <istream>
#include <iterator>
#include <system_error>

#include "ash/util/double_codec.h"

namespace ash::util {

namespace {

/// `text` quoted for an error message, cut at 40 bytes.
std::string quoted(std::string_view text) {
  std::string out = "'";
  out.append(text.substr(0, 40)).append(text.size() > 40 ? "...'" : "'");
  return out;
}

[[noreturn]] void report(Fail fail, const std::string& detail) {
  fail(detail);
  throw ParseError(detail);
}

template <typename Int>
std::optional<Int> parse_integer(std::string_view token) {
  Int v = 0;
  const char* const last = token.data() + token.size();
  const std::from_chars_result r = std::from_chars(token.data(), last, v);
  if (token.empty() || r.ec != std::errc() || r.ptr != last) {
    return std::nullopt;
  }
  return v;
}

}  // namespace

void throw_parse_error(const std::string& detail) { throw ParseError(detail); }

std::optional<std::uint64_t> parse_u64(std::string_view token) {
  return parse_integer<std::uint64_t>(token);
}

std::optional<int> parse_int(std::string_view token) {
  return parse_integer<int>(token);
}

std::string read_stream(std::istream& is) {
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
}

void Field::fail(const std::string& detail) const {
  report(fail_, "field '" + std::string(name_) + "' " + detail);
}

std::uint64_t Field::u64() const {
  const std::optional<std::uint64_t> v = parse_u64(text_);
  if (!v) fail("not an unsigned integer: " + quoted(text_));
  return *v;
}

int Field::integer(int lo, int hi) const {
  const std::optional<int> v = parse_int(text_);
  if (!v || *v < lo || *v > hi) {
    fail("not an integer in [" + std::to_string(lo) + ", " +
         std::to_string(hi) + "]: " + quoted(text_));
  }
  return *v;
}

double Field::number() const {
  const std::optional<double> v = parse_double(text_);
  if (!v) fail("not a finite number: " + quoted(text_));
  return *v;
}

double Field::number_in(double lo, double hi) const {
  const double v = number();
  if (v < lo || v > hi) {
    fail("= " + fmt_double(v) + " outside [" + fmt_double(lo) + ", " +
         fmt_double(hi) + "]");
  }
  return v;
}

bool Field::flag() const {
  if (text_ != "0" && text_ != "1") fail("not 0/1: " + quoted(text_));
  return text_ == "1";
}

Field Tokens::next(const char* name) {
  if (done_) report(fail_, "field '" + std::string(name) + "' missing");
  const std::size_t space = rest_.find(' ');
  const std::string_view token = rest_.substr(0, space);
  done_ = space == std::string_view::npos;
  rest_.remove_prefix(done_ ? rest_.size() : space + 1);
  if (token.empty()) {
    report(fail_, "field '" + std::string(name) + "' empty (stray space)");
  }
  return Field(token, name, fail_);
}

void Tokens::expect_end(std::string_view tag) const {
  if (done_) return;
  report(fail_, "trailing " + quoted(rest_.substr(0, rest_.find(' '))) +
                    " on " + quoted(tag));
}

std::string_view LineCursor::next_line() {
  if (done()) report(fail_, "ended before a required line");
  const std::size_t eol = text_.find('\n', pos_);
  if (eol == std::string_view::npos) {
    report(fail_, "line without newline terminator: " +
                      quoted(text_.substr(pos_)));
  }
  const std::string_view line = text_.substr(pos_, eol - pos_);
  pos_ = eol + 1;
  return line;
}

Field LineCursor::keyed(const char* key) {
  if (done()) report(fail_, "missing '" + std::string(key) + "' line");
  const std::string_view line = next_line();
  const std::string_view k(key);
  if (line.size() <= k.size() || line.substr(0, k.size()) != k ||
      line[k.size()] != ' ') {
    report(fail_, "expected '" + std::string(key) + "' line, got " +
                      quoted(line));
  }
  return Field(line.substr(k.size() + 1), key, fail_);
}

std::string_view LineCursor::take(std::uint64_t n) {
  if (text_.size() - pos_ < n) report(fail_, "length-prefixed block truncated");
  const std::string_view out = text_.substr(pos_, n);
  pos_ += n;
  return out;
}

void LineCursor::expect_done() const {
  if (!done()) {
    report(fail_, "trailing bytes after the document: " +
                      quoted(text_.substr(pos_)));
  }
}

KeyedDoc::KeyedDoc(std::initializer_list<const char*> schema, Fail fail)
    : fail_(fail) {
  if (schema.size() > kMaxKeys) {
    throw std::logic_error("KeyedDoc: schema wider than kMaxKeys");
  }
  for (const char* key : schema) keys_[count_++] = key;
}

KeyedDoc::KeyedDoc(std::string_view text,
                   std::initializer_list<const char*> schema, Fail fail)
    : KeyedDoc(schema, fail) {
  LineCursor cursor(text, fail);
  while (!cursor.done()) add(cursor.next_line());
  expect_complete();
}

std::size_t KeyedDoc::index_of(std::string_view key) const {
  std::size_t i = 0;
  while (i < count_ && key != keys_[i]) ++i;
  return i;  // count_ when `key` is outside the schema
}

void KeyedDoc::add(std::string_view line) {
  const std::size_t space = line.find(' ');
  if (space == std::string_view::npos || space == 0) {
    report(fail_, "malformed line " + quoted(line));
  }
  const std::string_view key = line.substr(0, space);
  const std::size_t i = index_of(key);
  if (i == count_) report(fail_, "unknown key " + quoted(key));
  if (has(key)) report(fail_, "duplicate " + quoted(key));
  seen_ |= 1u << i;
  values_[i] = line.substr(space + 1);
}

bool KeyedDoc::has(std::string_view key) const {
  const std::size_t i = index_of(key);
  return i < count_ && (seen_ & (1u << i)) != 0;
}

void KeyedDoc::expect_complete() const {
  for (std::size_t i = 0; i < count_; ++i) {
    if (!has(keys_[i])) report(fail_, "missing " + quoted(keys_[i]));
  }
}

Field KeyedDoc::operator[](const char* key) const {
  const std::size_t i = index_of(key);
  if (i == count_) throw std::logic_error("KeyedDoc: key outside the schema");
  if (!has(key)) report(fail_, "missing " + quoted(key));
  return Field(values_[i], key, fail_);
}

}  // namespace ash::util
