#include "ash/util/csv.h"

#include <ostream>
#include <stdexcept>

#include "ash/util/text_reader.h"

namespace ash {

std::string csv_escape(const std::string& cell) {
  const bool needs_quoting =
      cell.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quoting) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out.push_back('"');
  return out;
}

void write_csv_row(std::ostream& os, const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) os << ',';
    os << csv_escape(cells[i]);
  }
  os << '\n';
}

CsvDocument read_csv(std::istream& is) {
  return read_csv(util::read_stream(is));
}

CsvDocument read_csv(std::string_view text) {
  CsvDocument doc;
  std::vector<std::string> row;
  std::string cell;
  bool in_quotes = false;
  bool row_has_content = false;

  auto end_cell = [&] {
    row.push_back(std::move(cell));
    cell.clear();
  };
  auto end_row = [&] {
    end_cell();
    if (doc.header.empty()) {
      doc.header = std::move(row);
    } else {
      doc.rows.push_back(std::move(row));
    }
    row.clear();
    row_has_content = false;
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          ++i;
          cell.push_back('"');
        } else {
          in_quotes = false;
        }
      } else {
        cell.push_back(c);
      }
      row_has_content = true;
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        row_has_content = true;
        break;
      case ',':
        end_cell();
        row_has_content = true;
        break;
      case '\n':
        if (row_has_content || !cell.empty() || !row.empty()) end_row();
        break;
      case '\r':  // tolerate CRLF; any other '\r' is cell content
        if (i + 1 < text.size() && text[i + 1] == '\n') break;
        [[fallthrough]];
      default:
        cell.push_back(c);
        row_has_content = true;
        break;
    }
  }
  if (row_has_content || !cell.empty() || !row.empty()) end_row();

  for (const auto& r : doc.rows) {
    if (r.size() != doc.header.size()) {
      throw std::runtime_error("read_csv: ragged row");
    }
  }
  return doc;
}

}  // namespace ash
