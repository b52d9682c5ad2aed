#pragma once

/// \file csv.h
/// Minimal CSV emission/ingestion for experiment logs.  The virtual lab
/// (`ash::tb::DataLog`) records every RO-frequency sample of a campaign;
/// `ash_lab campaign` dumps these to CSV for offline plotting, and tests
/// round-trip them.

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace ash {

/// One parsed CSV document: a header row plus data rows of equal width.
struct CsvDocument {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
};

/// Quote a cell if it contains a comma, quote or newline (RFC 4180 style).
std::string csv_escape(const std::string& cell);

/// Write one CSV row (escaping each cell) terminated by '\n'.
void write_csv_row(std::ostream& os, const std::vector<std::string>& cells);

/// Parse a complete CSV document (the rest of a stream, or a text).
/// Handles quoted cells with embedded commas/newlines/doubled quotes.  The
/// first row is the header.
CsvDocument read_csv(std::istream& is);
CsvDocument read_csv(std::string_view text);

}  // namespace ash
