#include "ash/util/table.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <sstream>

namespace ash {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  aligns_.assign(header_.size(), Align::kRight);
  if (!aligns_.empty()) aligns_[0] = Align::kLeft;
}

void Table::add_row(std::vector<std::string> cells) {
  assert(cells.size() == header_.size());
  rows_.push_back(std::move(cells));
}

void Table::add_rule() { rows_.emplace_back(); }

void Table::set_align(std::size_t column, Align align) {
  assert(column < aligns_.size());
  aligns_[column] = align;
}

std::string Table::render() const {
  std::vector<std::size_t> widths(header_.size(), 0);
  for (std::size_t i = 0; i < header_.size(); ++i) {
    widths[i] = header_[i].size();
  }
  for (const auto& row : rows_) {
    if (row.empty()) continue;
    for (std::size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }

  auto rule = [&](char corner, char fill) {
    std::string s(1, corner);
    for (std::size_t w : widths) {
      s.append(w + 2, fill);
      s.push_back(corner);
    }
    s.push_back('\n');
    return s;
  };
  auto line = [&](const std::vector<std::string>& row) {
    std::string s = "|";
    for (std::size_t i = 0; i < row.size(); ++i) {
      const std::size_t pad = widths[i] - row[i].size();
      s.push_back(' ');
      if (aligns_[i] == Align::kRight) s.append(pad, ' ');
      s += row[i];
      if (aligns_[i] == Align::kLeft) s.append(pad, ' ');
      s.push_back(' ');
      s.push_back('|');
    }
    s.push_back('\n');
    return s;
  };

  std::string out = rule('+', '-');
  out += line(header_);
  out += rule('+', '=');
  for (const auto& row : rows_) {
    if (row.empty()) {
      out += rule('+', '-');
    } else {
      out += line(row);
    }
  }
  out += rule('+', '-');
  return out;
}

std::string strformat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string fmt_fixed(double v, int decimals) {
  return strformat("%.*f", decimals, v);
}

std::string fmt_percent(double fraction, int decimals) {
  return strformat("%.*f%%", decimals, fraction * 100.0);
}

std::string ascii_chart(const std::vector<std::string>& labels,
                        const std::vector<std::vector<double>>& rows,
                        std::size_t width, std::size_t height) {
  assert(labels.size() == rows.size());
  if (rows.empty()) return {};
  double lo = rows[0].empty() ? 0.0 : rows[0][0];
  double hi = lo;
  for (const auto& r : rows) {
    for (double v : r) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  if (hi == lo) hi = lo + 1.0;

  std::vector<std::string> grid(height, std::string(width, ' '));
  const char marks[] = "*o+x#@%&";
  for (std::size_t s = 0; s < rows.size(); ++s) {
    const auto& r = rows[s];
    if (r.empty()) continue;
    const char mark = marks[s % (sizeof(marks) - 1)];
    for (std::size_t i = 0; i < r.size(); ++i) {
      const std::size_t col =
          r.size() == 1 ? 0
                        : static_cast<std::size_t>(
                              std::llround(static_cast<double>(i) *
                                           static_cast<double>(width - 1) /
                                           static_cast<double>(r.size() - 1)));
      const double norm = (r[i] - lo) / (hi - lo);
      const auto row_idx = static_cast<std::size_t>(
          std::llround((1.0 - norm) * static_cast<double>(height - 1)));
      grid[row_idx][col] = mark;
    }
  }

  std::ostringstream out;
  out << strformat("%12.4g |", hi);
  out << '\n';
  for (std::size_t r = 0; r < height; ++r) {
    out << "             |" << grid[r] << '\n';
  }
  out << strformat("%12.4g +", lo) << std::string(width, '-') << '\n';
  out << "             legend:";
  for (std::size_t s = 0; s < labels.size(); ++s) {
    out << "  [" << marks[s % (sizeof(marks) - 1)] << "] " << labels[s];
  }
  out << '\n';
  return out.str();
}

void print_banner(const std::string& name, const std::string& paper_claim) {
  std::printf("================================================================\n");
  std::printf("%s\n", name.c_str());
  std::printf("paper: %s\n", paper_claim.c_str());
  std::printf("================================================================\n");
}

}  // namespace ash
