#include "util/table.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace netpart {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  NP_REQUIRE(!headers_.empty(), "table needs at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  NP_REQUIRE(cells.size() == headers_.size(),
             "row width must match header width");
  rows_.push_back(std::move(cells));
}

std::string Table::render(const std::string& title) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const std::vector<std::string>& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::ostringstream os;
  const auto rule = [&] {
    os << '+';
    for (std::size_t w : widths) os << std::string(w + 2, '-') << '+';
    os << '\n';
  };
  const auto line = [&](const std::vector<std::string>& cells) {
    os << '|';
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << ' ' << pad_right(cells[c], widths[c]) << " |";
    }
    os << '\n';
  };

  if (!title.empty()) os << title << '\n';
  rule();
  line(headers_);
  rule();
  for (const std::vector<std::string>& row : rows_) line(row);
  rule();
  return os.str();
}

}  // namespace netpart
