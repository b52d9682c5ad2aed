#pragma once

/// \file table.h
/// ASCII table rendering for the benchmark harness.  Every figure/table
/// bench prints its reproduced rows in this format, side by side with the
/// paper's reported values, so the output can be eyeballed against the
/// publication.

#include <cstddef>
#include <string>
#include <vector>

namespace ash {

/// Column alignment inside a rendered table.
enum class Align { kLeft, kRight };

/// Simple text table.  Usage:
///   Table t({"Case", "Paper", "Measured"});
///   t.add_row({"AS110DC24", "2.2%", fmt});
///   std::cout << t.render();
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Number of columns, fixed at construction.
  std::size_t columns() const { return header_.size(); }

  /// Add a data row; must have exactly `columns()` cells.
  void add_row(std::vector<std::string> cells);

  /// Insert a horizontal rule before the next added row.
  void add_rule();

  /// Set alignment for one column (default: left for col 0, right others).
  void set_align(std::size_t column, Align align);

  /// Render with box-drawing borders.
  std::string render() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;  // empty row == rule
  std::vector<Align> aligns_;
};

/// printf-style helper returning std::string (benches format cells with it).
std::string strformat(const char* fmt, ...);

/// Format a double with the given precision, e.g. fmt_fixed(2.236, 2) ==
/// "2.24".
std::string fmt_fixed(double v, int decimals);

/// Format as a percentage with the given precision: fmt_percent(0.0224, 1)
/// == "2.2%".  Input is a fraction.
std::string fmt_percent(double fraction, int decimals);

/// Render a crude ASCII chart of one or more series sampled on a shared
/// uniform grid — `ash_lab reproduce` uses it to show figure *shapes* inline.
/// `labels` and `rows` must be the same length; each row is a vector of
/// y-values on the shared x grid.
std::string ascii_chart(const std::vector<std::string>& labels,
                        const std::vector<std::vector<double>>& rows,
                        std::size_t width = 64, std::size_t height = 16);

/// Print the banner that opens every reproduced figure/table section: its
/// title and the paper's claim, between two rules.
void print_banner(const std::string& name, const std::string& paper_claim);

}  // namespace ash
