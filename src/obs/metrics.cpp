#include "obs/metrics.hpp"

#include <algorithm>
#include <sstream>

#include "common/table.hpp"
#include "obs/json.hpp"

namespace cgra::obs {

std::int32_t MetricsRegistry::find(const std::vector<std::string>& names,
                                   std::string_view name) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<std::int32_t>(i);
  }
  return -1;
}

CounterHandle MetricsRegistry::counter(std::string_view name) {
  if (const std::int32_t i = find(counter_names_, name); i >= 0) {
    return CounterHandle{i};
  }
  counter_names_.emplace_back(name);
  counters_.emplace_back(0);
  return CounterHandle{static_cast<std::int32_t>(counters_.size() - 1)};
}

GaugeHandle MetricsRegistry::gauge(std::string_view name) {
  if (const std::int32_t i = find(gauge_names_, name); i >= 0) {
    return GaugeHandle{i};
  }
  gauge_names_.emplace_back(name);
  gauges_.emplace_back(0.0);
  return GaugeHandle{static_cast<std::int32_t>(gauges_.size() - 1)};
}

HistogramHandle MetricsRegistry::histogram(std::string_view name,
                                           std::vector<double> upper_bounds) {
  for (std::size_t i = 0; i < hists_.size(); ++i) {
    if (hists_[i].name == name) {
      return HistogramHandle{static_cast<std::int32_t>(i)};
    }
  }
  if (upper_bounds.empty() ||
      !std::is_sorted(upper_bounds.begin(), upper_bounds.end()) ||
      std::adjacent_find(upper_bounds.begin(), upper_bounds.end()) !=
          upper_bounds.end()) {
    return HistogramHandle{};  // invalid: bounds must be strictly ascending
  }
  hists_.emplace_back(name, std::move(upper_bounds));
  return HistogramHandle{static_cast<std::int32_t>(hists_.size() - 1)};
}

void MetricsRegistry::observe(HistogramHandle h, double value) noexcept {
  if (!h.valid()) return;
  Histogram& hist = hists_[static_cast<std::size_t>(h.index)];
  const auto it =
      std::lower_bound(hist.bounds.begin(), hist.bounds.end(), value);
  hist.counts[static_cast<std::size_t>(it - hist.bounds.begin())].fetch_add(
      1, std::memory_order_relaxed);
  hist.sum.fetch_add(value, std::memory_order_relaxed);
}

std::int64_t MetricsRegistry::counter_value(CounterHandle h) const {
  return h.valid() ? counters_[static_cast<std::size_t>(h.index)].load(
                        std::memory_order_relaxed)
                   : 0;
}

double MetricsRegistry::gauge_value(GaugeHandle h) const {
  return h.valid() ? gauges_[static_cast<std::size_t>(h.index)].load(
                        std::memory_order_relaxed)
                   : 0.0;
}

HistogramSnapshot MetricsRegistry::histogram_snapshot(
    HistogramHandle h) const {
  HistogramSnapshot snap;
  if (!h.valid()) return snap;
  const Histogram& hist = hists_[static_cast<std::size_t>(h.index)];
  snap.name = hist.name;
  snap.bounds = hist.bounds;
  // `total` comes from the counts read here, not a separate atomic, so
  // quantiles over a snapshot taken mid-update stay self-consistent.
  snap.counts.reserve(hist.counts.size());
  for (const auto& c : hist.counts) {
    snap.counts.push_back(c.load(std::memory_order_relaxed));
    snap.total += snap.counts.back();
  }
  snap.sum = hist.sum.load(std::memory_order_relaxed);
  return snap;
}

std::int64_t MetricsRegistry::counter_value(std::string_view name) const {
  return counter_value(CounterHandle{find(counter_names_, name)});
}

double MetricsRegistry::gauge_value(std::string_view name) const {
  return gauge_value(GaugeHandle{find(gauge_names_, name)});
}

std::vector<MetricSample> MetricsRegistry::samples() const {
  std::vector<MetricSample> out;
  out.reserve(counters_.size() + gauges_.size());
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    out.push_back(MetricSample{
        counter_names_[i], true,
        static_cast<double>(counters_[i].load(std::memory_order_relaxed))});
  }
  for (std::size_t i = 0; i < gauges_.size(); ++i) {
    out.push_back(MetricSample{gauge_names_[i], false,
                               gauges_[i].load(std::memory_order_relaxed)});
  }
  return out;
}

std::vector<HistogramSnapshot> MetricsRegistry::histograms() const {
  std::vector<HistogramSnapshot> out;
  out.reserve(hists_.size());
  for (std::size_t i = 0; i < hists_.size(); ++i) {
    out.push_back(histogram_snapshot(
        HistogramHandle{static_cast<std::int32_t>(i)}));
  }
  return out;
}

void MetricsRegistry::reset_values() {
  for (auto& c : counters_) c.store(0, std::memory_order_relaxed);
  for (auto& g : gauges_) g.store(0.0, std::memory_order_relaxed);
  for (Histogram& h : hists_) {
    for (auto& c : h.counts) c.store(0, std::memory_order_relaxed);
    h.sum.store(0.0, std::memory_order_relaxed);
  }
}

std::string MetricsRegistry::to_json() const {
  // Exporters read through samples()/histograms(), the same relaxed
  // snapshot every other reader gets.
  const std::vector<MetricSample> all = samples();
  std::ostringstream os;
  for (const bool counters : {true, false}) {
    os << (counters ? "{\"counters\":{" : "},\"gauges\":{");
    bool first = true;
    for (const MetricSample& m : all) {
      if (m.is_counter != counters) continue;
      if (!first) os << ',';
      first = false;
      os << '"' << json_escape(m.name) << "\":";
      if (counters) {
        os << static_cast<std::int64_t>(m.value);
      } else {
        os << json_number(m.value);
      }
    }
  }
  os << "},\"histograms\":[";
  bool first = true;
  for (const HistogramSnapshot& h : histograms()) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << json_escape(h.name) << "\",\"bounds\":[";
    for (std::size_t b = 0; b < h.bounds.size(); ++b) {
      if (b != 0) os << ',';
      os << json_number(h.bounds[b]);
    }
    os << "],\"counts\":[";
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      if (b != 0) os << ',';
      os << h.counts[b];
    }
    os << "],\"total\":" << h.total << ",\"sum\":" << json_number(h.sum)
       << '}';
  }
  os << "]}";
  return os.str();
}

std::string MetricsRegistry::to_csv() const {
  std::ostringstream os;
  os << "kind,name,value\n";
  for (const MetricSample& m : samples()) {
    if (m.is_counter) {
      os << "counter," << m.name << ',' << static_cast<std::int64_t>(m.value)
         << '\n';
    } else {
      os << "gauge," << m.name << ',' << json_number(m.value) << '\n';
    }
  }
  for (const HistogramSnapshot& h : histograms()) {
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      os << "histogram," << h.name << "_le_";
      if (b < h.bounds.size()) {
        os << json_number(h.bounds[b]);
      } else {
        os << "inf";
      }
      os << ',' << h.counts[b] << '\n';
    }
  }
  return os.str();
}

std::string MetricsRegistry::to_table() const {
  TextTable table({"metric", "kind", "value"});
  for (const MetricSample& s : samples()) {
    table.add_row({s.name, s.is_counter ? "counter" : "gauge",
                   s.is_counter
                       ? TextTable::integer(static_cast<long long>(s.value))
                       : TextTable::num(s.value)});
  }
  for (const HistogramSnapshot& h : histograms()) {
    table.add_row({h.name, "histogram",
                   TextTable::integer(h.total) + " obs, sum " +
                       TextTable::num(h.sum)});
  }
  return table.render();
}

double histogram_quantile(const HistogramSnapshot& snap, double q) {
  if (snap.total <= 0 || snap.counts.empty()) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double rank = q * static_cast<double>(snap.total);
  double cum = 0.0;
  for (std::size_t b = 0; b < snap.counts.size(); ++b) {
    const double prev = cum;
    cum += static_cast<double>(snap.counts[b]);
    if (cum < rank || snap.counts[b] == 0) continue;
    // Overflow bucket has no upper bound: clamp to the last finite one.
    if (b >= snap.bounds.size()) return snap.bounds.back();
    const double lo = b == 0 ? 0.0 : snap.bounds[b - 1];
    const double hi = snap.bounds[b];
    const double frac =
        (rank - prev) / static_cast<double>(snap.counts[b]);
    return lo + (hi - lo) * (frac < 0.0 ? 0.0 : frac > 1.0 ? 1.0 : frac);
  }
  return snap.bounds.empty() ? 0.0 : snap.bounds.back();
}

}  // namespace cgra::obs
