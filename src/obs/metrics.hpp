// Low-overhead metrics registry for the fabric hot loop and the serving
// stack.
//
// Design contract (docs/OBSERVABILITY.md):
//   * Handles are resolved ONCE (by name) at attach time; after that every
//     update is one relaxed atomic operation on the metric's slot — the
//     fabric step loop pays one add per counter.
//   * Register before the registry is shared, then update and read from
//     any thread.  Registration (counter/gauge/histogram) is not
//     thread-safe; add/set/observe and every readout are, with no lock:
//     values live in deques of atomics, so a slot never moves once
//     registered.  Readouts are relaxed loads: each value is exact, a
//     multi-metric readout is not one instant.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cgra::obs {

/// Pre-resolved index into the registry's dense counter storage.
struct CounterHandle {
  std::int32_t index = -1;
  [[nodiscard]] bool valid() const noexcept { return index >= 0; }
};

/// Pre-resolved index into the dense gauge storage.
struct GaugeHandle {
  std::int32_t index = -1;
  [[nodiscard]] bool valid() const noexcept { return index >= 0; }
};

/// Pre-resolved index into the histogram storage.
struct HistogramHandle {
  std::int32_t index = -1;
  [[nodiscard]] bool valid() const noexcept { return index >= 0; }
};

/// Readout of one histogram: counts[i] holds observations v with
/// v <= bounds[i] (and > bounds[i-1]); counts.back() is the overflow
/// bucket for v > bounds.back().
struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;       ///< Ascending upper bounds.
  std::vector<std::int64_t> counts; ///< bounds.size() + 1 entries.
  std::int64_t total = 0;           ///< Sum of `counts`.
  double sum = 0.0;                 ///< Sum of observed values.
};

/// One metric in a snapshot dump (counters and gauges).
struct MetricSample {
  std::string name;
  bool is_counter = true;
  double value = 0.0;
};

/// Registry of counters, gauges and fixed-bucket histograms.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create by name.  Call once, before the registry is shared,
  /// and keep the handle.
  CounterHandle counter(std::string_view name);
  GaugeHandle gauge(std::string_view name);
  /// `upper_bounds` must be non-empty and strictly ascending; an implicit
  /// overflow bucket is appended.  Re-registering an existing name returns
  /// the existing handle (the bounds of the first registration win).
  HistogramHandle histogram(std::string_view name,
                            std::vector<double> upper_bounds);

  // --- hot path: one relaxed atomic op each ---

  void add(CounterHandle h, std::int64_t delta = 1) noexcept {
    counters_[static_cast<std::size_t>(h.index)].fetch_add(
        delta, std::memory_order_relaxed);
  }

  void set(GaugeHandle h, double value) noexcept {
    gauges_[static_cast<std::size_t>(h.index)].store(
        value, std::memory_order_relaxed);
  }

  void observe(HistogramHandle h, double value) noexcept;

  // --- readout ---

  [[nodiscard]] std::int64_t counter_value(CounterHandle h) const;
  [[nodiscard]] double gauge_value(GaugeHandle h) const;
  [[nodiscard]] HistogramSnapshot histogram_snapshot(HistogramHandle h) const;

  /// Lookup by name; 0 / empty when the metric does not exist.
  [[nodiscard]] std::int64_t counter_value(std::string_view name) const;
  [[nodiscard]] double gauge_value(std::string_view name) const;

  /// All counters and gauges, in registration order.
  [[nodiscard]] std::vector<MetricSample> samples() const;
  /// All histograms, in registration order.
  [[nodiscard]] std::vector<HistogramSnapshot> histograms() const;

  [[nodiscard]] std::size_t metric_count() const noexcept {
    return counter_names_.size() + gauge_names_.size() + hists_.size();
  }

  /// Zero all values; definitions and handles stay valid.  Updates that
  /// race with the reset may land on either side of it.
  void reset_values();

  // --- exporters ---

  /// {"counters":{...},"gauges":{...},"histograms":[...]}
  [[nodiscard]] std::string to_json() const;
  /// kind,name,value rows (histograms flattened to one row per bucket).
  [[nodiscard]] std::string to_csv() const;
  /// Aligned table via common/table for terminal output.
  [[nodiscard]] std::string to_table() const;

 private:
  struct Histogram {
    Histogram(std::string_view n, std::vector<double> b)
        : name(n), bounds(std::move(b)), counts(bounds.size() + 1) {}
    std::string name;
    std::vector<double> bounds;
    std::vector<std::atomic<std::int64_t>> counts;  ///< bounds.size() + 1.
    std::atomic<double> sum{0.0};
  };

  static std::int32_t find(const std::vector<std::string>& names,
                           std::string_view name);

  std::vector<std::string> counter_names_;
  std::deque<std::atomic<std::int64_t>> counters_;
  std::vector<std::string> gauge_names_;
  std::deque<std::atomic<double>> gauges_;
  std::deque<Histogram> hists_;
};

/// Quantile estimate (q in [0,1]) from a histogram snapshot by linear
/// interpolation within the winning bucket.  The overflow bucket clamps
/// to bounds.back().  Returns 0 for an empty histogram.  Feeds the
/// p50/p90/p99 gauges the server appends to kStatsResult frames.
[[nodiscard]] double histogram_quantile(const HistogramSnapshot& snap,
                                        double q);

}  // namespace cgra::obs
