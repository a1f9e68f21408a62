// Minimal fixed-width table printer for benchmark harnesses.
//
// paper_report regenerates the paper's tables and figures as text, and the
// perf benches print theirs; this helper keeps them aligned and uniform.
#pragma once

#include <string>
#include <vector>

namespace cgra {

/// Accumulates rows of strings and renders them with aligned columns.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Append one row; short rows are padded with empty cells.
  void add_row(std::vector<std::string> cells);

  /// Render with a header underline and two-space column gaps.
  [[nodiscard]] std::string render() const;

  /// Number of data rows added so far.
  [[nodiscard]] std::size_t row_count() const noexcept { return rows_.size(); }

  /// Raw cells, for machine-readable exports (obs::BenchReport).
  [[nodiscard]] const std::vector<std::string>& header() const noexcept {
    return header_;
  }
  [[nodiscard]] const std::vector<std::vector<std::string>>& rows()
      const noexcept {
    return rows_;
  }

  /// Format helpers for numeric cells.
  static std::string num(double v, int precision = 2);
  static std::string integer(long long v);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace cgra
