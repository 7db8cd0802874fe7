#include "src/obs/timeline.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <utility>

#include "src/des/simulator.h"
#include "src/util/require.h"
#include "src/util/strings.h"

namespace anyqos::obs {

namespace {

// Round-trip rendering shared by both writers so the determinism contract
// holds byte-for-byte across formats.
void write_number(std::ostream& out, double value) {
  if (!std::isfinite(value)) {
    out << "null";
    return;
  }
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    out << static_cast<long long>(value);
    return;
  }
  out << util::format_g17(value).view();
}

}  // namespace

std::string to_string(TimelineColumnKind kind) {
  switch (kind) {
    case TimelineColumnKind::kGauge:
      return "gauge";
    case TimelineColumnKind::kRate:
      return "rate";
    case TimelineColumnKind::kWatermark:
      return "watermark";
  }
  util::unreachable("TimelineColumnKind");
}

Timeline::Timeline(TimelineOptions options) : options_(options) {
  util::require(options_.interval_s > 0.0, "timeline interval must be positive");
}

Timeline::ColumnId Timeline::add_column(std::string name, TimelineColumnKind kind,
                                        Probe probe) {
  util::require(!attached_, "register timeline columns before attach()");
  util::require(!name.empty(), "timeline column name must not be empty");
  util::require(probe != nullptr, "timeline column needs a probe");
  Column column;
  column.name = std::move(name);
  column.kind = kind;
  column.probe = std::move(probe);
  column.noted = -std::numeric_limits<double>::infinity();
  columns_.push_back(std::move(column));
  return columns_.size() - 1;
}

Timeline::ColumnId Timeline::add_gauge(std::string name, Probe probe) {
  return add_column(std::move(name), TimelineColumnKind::kGauge, std::move(probe));
}

Timeline::ColumnId Timeline::add_counter(std::string name, Probe probe) {
  return add_column(std::move(name), TimelineColumnKind::kRate, std::move(probe));
}

Timeline::ColumnId Timeline::add_watermark(std::string name, Probe probe) {
  return add_column(std::move(name), TimelineColumnKind::kWatermark, std::move(probe));
}

void Timeline::attach(des::Simulator& simulator, std::function<bool()> stop_rearming) {
  util::require(!attached_, "timeline already attached");
  simulator_ = &simulator;
  category_ = simulator.category("obs.timeline");
  stop_rearming_ = std::move(stop_rearming);
  attached_ = true;
  window_start_ = simulator.now();
  for (Column& column : columns_) {
    if (column.kind == TimelineColumnKind::kRate) {
      column.last = column.probe();
    }
  }
  schedule_sample();
}

void Timeline::schedule_sample() {
  // Self-rescheduling like the auditor's checkpoint: one pending event at
  // all times, parked past the horizon between run_until() calls.
  simulator_->schedule_in(options_.interval_s, category_, [this] {
    sample();
    if (stop_rearming_ == nullptr || !stop_rearming_()) {
      schedule_sample();
    }
  });
}

void Timeline::mark_measurement_start(double now) {
  util::require(attached_, "mark_measurement_start requires an attached timeline");
  util::require(!measurement_start_.has_value(), "measurement start already marked");
  measurement_start_ = now;
  window_start_ = now;
  for (Column& column : columns_) {
    if (column.kind == TimelineColumnKind::kRate) {
      column.last = column.probe();
    }
  }
}

void Timeline::sample() {
  util::require(attached_, "sample requires an attached timeline");
  const double now = simulator_->now();
  const double window = now - window_start_;
  TimelineSample row;
  row.time = now;
  row.window_s = window;
  row.warmup = !measurement_start_.has_value();
  row.values.reserve(columns_.size());
  for (Column& column : columns_) {
    switch (column.kind) {
      case TimelineColumnKind::kGauge:
        row.values.push_back(column.probe());
        break;
      case TimelineColumnKind::kRate: {
        const double current = column.probe();
        const double delta = std::max(0.0, current - column.last);
        column.last = current;
        row.values.push_back(window > 0.0 ? delta / window : 0.0);
        break;
      }
      case TimelineColumnKind::kWatermark: {
        const double floor = column.probe();
        row.values.push_back(std::max(column.noted, floor));
        column.noted = -std::numeric_limits<double>::infinity();
        break;
      }
    }
  }
  samples_.push_back(std::move(row));
  window_start_ = now;
}

void Timeline::write_jsonl(std::ostream& out) const {
  out << "{\"timeline\":\"header\",\"interval_s\":";
  write_number(out, options_.interval_s);
  out << ",\"measurement_start_s\":";
  if (measurement_start_.has_value()) {
    write_number(out, *measurement_start_);
  } else {
    out << "null";
  }
  out << ",\"columns\":[";
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) {
      out << ',';
    }
    out << "{\"name\":\"" << util::json_escape(columns_[i].name) << "\",\"kind\":\""
        << to_string(columns_[i].kind) << "\"}";
  }
  out << "]}\n";
  for (const TimelineSample& row : samples_) {
    out << "{\"timeline\":\"sample\",\"t\":";
    write_number(out, row.time);
    out << ",\"window_s\":";
    write_number(out, row.window_s);
    out << ",\"warmup\":" << (row.warmup ? "true" : "false") << ",\"values\":[";
    for (std::size_t i = 0; i < row.values.size(); ++i) {
      if (i > 0) {
        out << ',';
      }
      write_number(out, row.values[i]);
    }
    out << "]}\n";
  }
}

void Timeline::write_csv(std::ostream& out) const {
  out << "time,window_s,warmup";
  for (const Column& column : columns_) {
    out << ',' << column.name;
  }
  out << '\n';
  for (const TimelineSample& row : samples_) {
    write_number(out, row.time);
    out << ',';
    write_number(out, row.window_s);
    out << ',' << (row.warmup ? 1 : 0);
    for (const double value : row.values) {
      out << ',';
      write_number(out, value);
    }
    out << '\n';
  }
}

}  // namespace anyqos::obs
