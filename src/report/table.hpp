// Fixed-width table printing for benchmark harnesses.  Each bench/suite figure
// prints the rows/series of the paper figure it regenerates.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace emusim::report {

class Table {
 public:
  explicit Table(std::string title) : title_(std::move(title)) {}

  Table& columns(std::vector<std::string> names) {
    header_ = std::move(names);
    return *this;
  }

  Table& row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
    return *this;
  }

  const std::string& title() const { return title_; }
  std::size_t num_rows() const { return rows_.size(); }
  const std::vector<std::string>& header() const { return header_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

  void print(std::FILE* out = stdout) const;

  // --- cell formatting helpers -------------------------------------------
  static std::string num(double v, int precision = 1);
  static std::string integer(long long v);

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace emusim::report
