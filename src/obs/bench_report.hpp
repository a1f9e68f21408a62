// Machine-readable benchmark output: BENCH_<name>.json.
//
// Every bench binary emits one of these next to its stdout table so the
// performance trajectory is diffable across PRs (plot scripts and CI read
// the JSON; humans read the table).  Schema:
//
//   { "bench": "<name>",
//     "engine": "interp" | "threaded",
//     "metrics": [ {"name": ..., "value": ..., "unit": ...,
//                   "params": {"k": "v", ...}}, ... ],
//     "tables":  [ {"name": ..., "header": [...], "rows": [[...], ...]} ] }
//
// The engine field records which execution engine produced the numbers;
// scripts/perf_compare.py refuses to compare reports across engines.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace cgra {
class TextTable;
}  // namespace cgra

namespace cgra::obs {

/// Process-wide label for the execution engine benchmarks run on; stamped
/// into every BenchReport at construction.  engine::use_process_engine
/// keeps it in sync with the --engine flag; the default is "interp".
void set_bench_engine_label(std::string label);
[[nodiscard]] const std::string& bench_engine_label();

/// Collects metrics and tables; write() emits BENCH_<name>.json.
class BenchReport {
 public:
  explicit BenchReport(std::string name)
      : name_(std::move(name)), engine_(bench_engine_label()) {}

  /// One scalar result with its unit and identifying parameters.
  void add(std::string metric, double value, std::string unit,
           std::vector<std::pair<std::string, std::string>> params = {});

  /// Embed a rendered table verbatim (header + string cells).
  void add_table(std::string table_name, const TextTable& table);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  /// Override the engine stamp (defaults to bench_engine_label()).
  void set_engine(std::string engine) { engine_ = std::move(engine); }
  [[nodiscard]] const std::string& engine() const noexcept { return engine_; }
  [[nodiscard]] std::string to_json() const;

  /// Write BENCH_<name>.json into `dir` (default: the working directory)
  /// and print a one-line note to stdout.  Returns false on I/O failure.
  bool write(const std::string& dir = ".") const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::vector<std::pair<std::string, std::string>> params;
  };
  struct Table {
    std::string name;
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
  };

  std::string name_;
  std::string engine_;
  std::vector<Metric> metrics_;
  std::vector<Table> tables_;
};

}  // namespace cgra::obs
