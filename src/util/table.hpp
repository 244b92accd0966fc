// ASCII table rendering for the benchmark harnesses.
//
// Every bench binary reproduces one of the paper's tables/figures; this
// renderer prints them in a fixed-width layout that matches the row/column
// structure of the paper.
#pragma once

#include <string>
#include <vector>

namespace netpart {

/// A simple column-aligned ASCII table.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Append a row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  std::size_t num_rows() const { return rows_.size(); }

  /// Render with column padding, a header rule, and optional title.
  std::string render(const std::string& title = "") const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace netpart
