#include "sim/report.hpp"

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace sa::sim {

Table::Table(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)),
      columns_(std::move(columns)),
      precision_(columns_.size(), 3) {}

Table& Table::precision(std::size_t col, int digits) {
  precision_.at(col) = digits;
  return *this;
}

void Table::add_row(std::vector<Cell> row) {
  if (row.size() != columns_.size()) {
    throw std::invalid_argument("Table::add_row: wrong number of cells");
  }
  rows_.push_back(std::move(row));
}

std::string Table::format_cell(const Cell& c, std::size_t col) const {
  std::ostringstream os;
  if (const auto* s = std::get_if<std::string>(&c)) {
    os << *s;
  } else if (const auto* i = std::get_if<std::int64_t>(&c)) {
    os << *i;
  } else {
    os << std::fixed << std::setprecision(precision_[col])
       << std::get<double>(c);
  }
  return os.str();
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    width[c] = columns_[c].size();
  }
  std::vector<std::vector<std::string>> cells;
  cells.reserve(rows_.size());
  for (const auto& row : rows_) {
    auto& out = cells.emplace_back();
    out.reserve(row.size());
    for (std::size_t c = 0; c < row.size(); ++c) {
      out.push_back(format_cell(row[c], c));
      width[c] = std::max(width[c], out.back().size());
    }
  }
  os << "== " << title_ << " ==\n";
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c ? "  " : "") << std::setw(static_cast<int>(width[c]))
         << row[c];
    }
    os << '\n';
  };
  print_row(columns_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < width.size(); ++c) total += width[c] + (c ? 2 : 0);
  os << std::string(total, '-') << '\n';
  for (const auto& row : cells) print_row(row);
  os << '\n';
}

}  // namespace sa::sim
