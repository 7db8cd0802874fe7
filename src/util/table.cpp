#include "src/util/table.h"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "src/util/require.h"
#include "src/util/strings.h"

namespace anyqos::util {

std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) {
    return field;
  }
  std::string escaped = "\"";
  for (const char c : field) {
    if (c == '"') {
      escaped += "\"\"";
    } else {
      escaped += c;
    }
  }
  escaped += '"';
  return escaped;
}

TablePrinter::TablePrinter(std::vector<std::string> header) : header_(std::move(header)) {
  require(!header_.empty(), "table header must have at least one column");
}

void TablePrinter::add_row(std::vector<std::string> row) {
  require(row.size() == header_.size(), "table row width must match header width");
  rows_.push_back(std::move(row));
}

void TablePrinter::add_numeric_row(const std::vector<double>& row, int digits) {
  std::vector<std::string> cells;
  cells.reserve(row.size());
  for (const double value : row) {
    cells.push_back(format_fixed(value, digits));
  }
  add_row(std::move(cells));
}

std::string TablePrinter::to_text() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream out;
  const auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << (c == 0 ? "" : "  ");
      out << row[c];
      out << std::string(widths[c] - row[c].size(), ' ');
    }
    out << '\n';
  };
  emit_row(header_);
  std::size_t total = 0;
  for (const std::size_t w : widths) {
    total += w;
  }
  total += 2 * (widths.size() - 1);
  out << std::string(total, '-') << '\n';
  for (const auto& row : rows_) {
    emit_row(row);
  }
  return out.str();
}

std::string TablePrinter::to_csv() const {
  std::ostringstream out;
  const auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c != 0) {
        out << ',';
      }
      out << csv_escape(row[c]);
    }
    out << '\n';
  };
  emit_row(header_);
  for (const auto& row : rows_) {
    emit_row(row);
  }
  return out.str();
}

void TablePrinter::print(std::ostream& out) const { out << to_text(); }

}  // namespace anyqos::util
