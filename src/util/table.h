// Plain-text and CSV table rendering for benchmark/report output.
//
// Benches print results in the same row/column layout as the paper's tables
// and figure series; TablePrinter keeps the formatting in one place.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace anyqos::util {

/// One CSV field, quoted (inner quotes doubled) when it holds a comma,
/// quote, or newline.
std::string csv_escape(const std::string& field);

/// Accumulates rows of string cells and renders them either as an aligned
/// monospace table (for the console) or as CSV (for plotting).
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  /// Appends one row; must have the same number of cells as the header.
  void add_row(std::vector<std::string> row);

  /// Convenience for mixed numeric rows: values are formatted with
  /// `digits` decimal places.
  void add_numeric_row(const std::vector<double>& row, int digits);

  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }
  [[nodiscard]] std::size_t column_count() const { return header_.size(); }

  /// Renders an aligned table with a header separator line.
  [[nodiscard]] std::string to_text() const;
  /// Renders RFC-4180-ish CSV (fields containing comma/quote are quoted).
  [[nodiscard]] std::string to_csv() const;

  /// Writes to_text() to `out`.
  void print(std::ostream& out) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace anyqos::util
