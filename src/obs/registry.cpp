#include "src/obs/registry.h"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "src/util/require.h"
#include "src/util/strings.h"

namespace anyqos::obs {

namespace {

// Prometheus label-value escaping: backslash, double quote, and newline.
std::string prometheus_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

// HELP text escapes backslash and newline only (no quotes in that position).
std::string prometheus_escape_help(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

// Renders a number for exposition: integers without a decimal point, other
// values with enough digits to round-trip.
std::string render_number(double value) {
  // The Prometheus exposition format spells non-finite values +Inf/-Inf/NaN
  // (%.17g would print "inf"/"nan", which scrapers reject). JSON writers
  // bypass this via write_number_json, which maps them to null.
  if (std::isnan(value)) {
    return "NaN";
  }
  if (std::isinf(value)) {
    return value > 0.0 ? "+Inf" : "-Inf";
  }
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    return std::to_string(static_cast<long long>(value));
  }
  return std::string(util::format_g17(value).view());
}

// Canonical key for a sorted label set: k1="v1",k2="v2" (escaped).
std::string canonical_labels(const Labels& labels) {
  std::string key;
  for (const Label& label : labels) {
    if (!key.empty()) {
      key += ',';
    }
    key += label.key;
    key += "=\"";
    key += prometheus_escape(label.value);
    key += '"';
  }
  return key;
}

void write_label_block(std::ostream& out, const std::string& canonical) {
  if (!canonical.empty()) {
    out << '{' << canonical << '}';
  }
}

void write_labels_json(std::ostream& out, const Labels& labels) {
  out << '{';
  bool first = true;
  for (const Label& label : labels) {
    if (!first) {
      out << ',';
    }
    first = false;
    out << '"' << util::json_escape(label.key) << "\":\"" << util::json_escape(label.value)
        << '"';
  }
  out << '}';
}

// JSON cannot carry Inf/NaN; map them to null.
void write_number_json(std::ostream& out, double value) {
  if (std::isfinite(value)) {
    out << render_number(value);
  } else {
    out << "null";
  }
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  util::require(!bounds_.empty(), "histogram needs at least one bucket bound");
  for (const double bound : bounds_) {
    util::require(!std::isnan(bound), "histogram bounds must not be NaN");
  }
  util::require(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                    std::adjacent_find(bounds_.begin(), bounds_.end()) == bounds_.end(),
                "histogram bounds must be strictly increasing");
  buckets_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double value, std::uint64_t count) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const std::lock_guard<std::mutex> lock(mutex_);
  buckets_[static_cast<std::size_t>(it - bounds_.begin())] += count;
  count_ += count;
  sum_ += value * static_cast<double>(count);
}

std::uint64_t Histogram::bucket_count(std::size_t i) const {
  util::require(i < bounds_.size() + 1, "histogram bucket index out of range");
  const std::lock_guard<std::mutex> lock(mutex_);
  return buckets_[i];
}

std::uint64_t Histogram::cumulative_count(std::size_t i) const {
  util::require(i < bounds_.size() + 1, "histogram bucket index out of range");
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (std::size_t b = 0; b <= i; ++b) {
    total += buckets_[b];
  }
  return total;
}

std::uint64_t Histogram::count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return count_;
}

double Histogram::sum() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return sum_;
}

Histogram::Snapshot Histogram::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Snapshot snap;
  snap.cumulative.reserve(bounds_.size() + 1);
  std::uint64_t running = 0;
  for (std::size_t b = 0; b < bounds_.size(); ++b) {
    running += buckets_[b];
    snap.cumulative.push_back(running);
  }
  // The implicit +Inf bucket: cumulative.back() always equals count.
  snap.cumulative.push_back(count_);
  snap.count = count_;
  snap.sum = sum_;
  return snap;
}

std::string to_string(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  util::unreachable("MetricType");
}

MetricsRegistry::Family& MetricsRegistry::family_for(const std::string& name,
                                                     const std::string& help,
                                                     MetricType type) {
  util::require(!name.empty(), "metric name must not be empty");
  auto [it, inserted] = families_.try_emplace(name);
  if (inserted) {
    it->second.help = help;
    it->second.type = type;
  } else {
    util::require(it->second.type == type,
                  "metric '" + name + "' already registered as " +
                      to_string(it->second.type) + ", not " + to_string(type));
  }
  return it->second;
}

MetricsRegistry::Series& MetricsRegistry::series_for(Family& family, Labels labels) {
  std::sort(labels.begin(), labels.end(),
            [](const Label& a, const Label& b) { return a.key < b.key; });
  for (std::size_t i = 1; i < labels.size(); ++i) {
    util::require(labels[i - 1].key != labels[i].key, "duplicate label key in series");
  }
  for (const Label& label : labels) {
    util::require(!label.key.empty(), "label key must not be empty");
  }
  auto [it, inserted] = family.series.try_emplace(canonical_labels(labels));
  if (inserted) {
    it->second.labels = std::move(labels);
  }
  return it->second;
}

Counter& MetricsRegistry::counter(const std::string& name, const std::string& help,
                                  Labels labels) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Series& series = series_for(family_for(name, help, MetricType::kCounter), std::move(labels));
  if (series.counter == nullptr) {
    series.counter = std::make_unique<Counter>();
  }
  return *series.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const std::string& help, Labels labels) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Series& series = series_for(family_for(name, help, MetricType::kGauge), std::move(labels));
  if (series.gauge == nullptr) {
    series.gauge = std::make_unique<Gauge>();
  }
  return *series.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name, const std::string& help,
                                      std::vector<double> bounds, Labels labels) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Series& series =
      series_for(family_for(name, help, MetricType::kHistogram), std::move(labels));
  if (series.histogram == nullptr) {
    series.histogram = std::make_unique<Histogram>(std::move(bounds));
  } else {
    util::require(series.histogram->bounds() == bounds,
                  "histogram '" + name + "' re-registered with different bounds");
  }
  return *series.histogram;
}

std::size_t MetricsRegistry::family_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return families_.size();
}

std::size_t MetricsRegistry::cardinality(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = families_.find(name);
  return it == families_.end() ? 0 : it->second.series.size();
}

std::size_t MetricsRegistry::series_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& [name, family] : families_) {
    total += family.series.size();
  }
  return total;
}

void MetricsRegistry::write_prometheus(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, family] : families_) {
    out << "# HELP " << name << ' ' << prometheus_escape_help(family.help) << '\n';
    out << "# TYPE " << name << ' ' << to_string(family.type) << '\n';
    for (const auto& [canonical, series] : family.series) {
      switch (family.type) {
        case MetricType::kCounter:
          out << name;
          write_label_block(out, canonical);
          out << ' ' << series.counter->value() << '\n';
          break;
        case MetricType::kGauge:
          out << name;
          write_label_block(out, canonical);
          out << ' ' << render_number(series.gauge->value()) << '\n';
          break;
        case MetricType::kHistogram: {
          const Histogram& h = *series.histogram;
          const Histogram::Snapshot snap = h.snapshot();
          const std::string sep = canonical.empty() ? "" : ",";
          // Non-finite bounds are skipped: a user-supplied +Inf last bound
          // must not double-emit against the mandatory +Inf line below (its
          // observations are still in snap.count), and a -Inf bound has no
          // meaningful exposition of its own.
          for (std::size_t i = 0; i < h.bounds().size(); ++i) {
            if (!std::isfinite(h.bounds()[i])) {
              continue;
            }
            out << name << "_bucket{" << canonical << sep
                << "le=\"" << render_number(h.bounds()[i]) << "\"} "
                << snap.cumulative[i] << '\n';
          }
          // The cumulative +Inf bucket is mandatory and always equals _count.
          out << name << "_bucket{" << canonical << sep << "le=\"+Inf\"} " << snap.count
              << '\n';
          out << name << "_sum";
          write_label_block(out, canonical);
          out << ' ' << render_number(snap.sum) << '\n';
          out << name << "_count";
          write_label_block(out, canonical);
          out << ' ' << snap.count << '\n';
          break;
        }
      }
    }
  }
}

void MetricsRegistry::write_jsonl(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, family] : families_) {
    for (const auto& [canonical, series] : family.series) {
      out << "{\"name\":\"" << util::json_escape(name) << "\",\"type\":\""
          << to_string(family.type) << "\",\"labels\":";
      write_labels_json(out, series.labels);
      switch (family.type) {
        case MetricType::kCounter:
          out << ",\"value\":" << series.counter->value();
          break;
        case MetricType::kGauge:
          out << ",\"value\":";
          write_number_json(out, series.gauge->value());
          break;
        case MetricType::kHistogram: {
          const Histogram& h = *series.histogram;
          const Histogram::Snapshot snap = h.snapshot();
          out << ",\"buckets\":[";
          bool first = true;
          for (std::size_t i = 0; i < h.bounds().size(); ++i) {
            // Non-finite bounds would render as {"le":null}; skip them like
            // the Prometheus writer does (count/sum still cover them).
            if (!std::isfinite(h.bounds()[i])) {
              continue;
            }
            if (!first) {
              out << ',';
            }
            first = false;
            out << "{\"le\":";
            write_number_json(out, h.bounds()[i]);
            out << ",\"count\":" << snap.cumulative[i] << '}';
          }
          out << "],\"sum\":";
          write_number_json(out, snap.sum);
          out << ",\"count\":" << snap.count;
          break;
        }
      }
      out << "}\n";
    }
  }
}

}  // namespace anyqos::obs
