// Console table reporting used by the benchmark harness.
//
// Every experiment binary prints its results through a Table so that the
// rows recorded in EXPERIMENTS.md are regenerated verbatim by re-running
// the bench target.
#pragma once

#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

namespace sa::sim {

/// A table cell: text, integer, or floating point (printed with
/// per-column precision).
using Cell = std::variant<std::string, std::int64_t, double>;

/// Column-aligned text table.
class Table {
 public:
  /// `title` is printed as a header banner; `columns` are the header row.
  Table(std::string title, std::vector<std::string> columns);

  /// Sets the number of digits after the decimal point for double cells in
  /// column `col` (default 3).
  Table& precision(std::size_t col, int digits);

  /// Appends a row; must have exactly as many cells as there are columns.
  void add_row(std::vector<Cell> row);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }
  [[nodiscard]] const std::vector<Cell>& row(std::size_t i) const {
    return rows_[i];
  }

  /// Renders the aligned table to `os`.
  void print(std::ostream& os) const;

 private:
  [[nodiscard]] std::string format_cell(const Cell& c, std::size_t col) const;
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<int> precision_;
  std::vector<std::vector<Cell>> rows_;
};

}  // namespace sa::sim
