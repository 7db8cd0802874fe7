#include "src/obs/flight_recorder.h"

#include <charconv>
#include <ostream>

#include "src/obs/jsonl.h"
#include "src/util/require.h"
#include "src/util/strings.h"

namespace anyqos::obs {

namespace {

/// "%.0f" through std::to_chars, which prints the same text.
void append_fixed0(std::string& line, double value) {
  char buffer[330];  // DBL_MAX has 309 integral digits
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value,
                                       std::chars_format::fixed, 0);
  (void)ec;
  line.append(buffer, end);
}

void append_event_head(std::string& line, double time, std::string_view kind) {
  line += "{\"flight\":\"event\",\"t\":";
  jsonl::append_number(line, time);
  line += ",\"kind\":\"";
  util::append_json_escaped(line, kind);
  line += "\",\"detail\":\"";
}

}  // namespace

FlightRecorder::FlightRecorder(FlightRecorderOptions options) : options_(options) {
  util::require(options_.depth > 0, "flight recorder depth must be positive");
}

void FlightRecorder::RingSink::on_attempt(const AttemptSpan& span) {
  owner_->push(Slot::Kind::kAttempt).attempt = span;
  if (owner_->forward_ != nullptr) {
    owner_->forward_->on_attempt(span);
  }
}

void FlightRecorder::RingSink::on_decision(const DecisionSpan& span) {
  owner_->push(Slot::Kind::kDecision).decision = span;
  if (owner_->forward_ != nullptr) {
    owner_->forward_->on_decision(span);
  }
}

void FlightRecorder::note(double time, std::string_view kind, std::string_view detail) {
  FlightNote& note = push(Slot::Kind::kNote).note;
  note.time = time;
  note.kind.assign(kind);
  note.detail.assign(detail);
}

void FlightRecorder::note(const FlowNote& event) { push(Slot::Kind::kFlow).flow = event; }

FlightRecorder::Slot& FlightRecorder::push(Slot::Kind kind) {
  Slot* slot = nullptr;
  if (size_ < options_.depth) {
    if (ring_.size() == size_) {
      ring_.emplace_back();
    }
    slot = &ring_[size_++];
  } else {
    slot = &ring_[next_];
    next_ = (next_ + 1) % options_.depth;
  }
  slot->kind = kind;
  return *slot;
}

void FlightRecorder::append_line(const Slot& slot) {
  switch (slot.kind) {
    case Slot::Kind::kAttempt:
      append_jsonl(snapshot_, slot.attempt);
      return;
    case Slot::Kind::kDecision:
      append_jsonl(snapshot_, slot.decision);
      return;
    case Slot::Kind::kFlow: {
      const FlowNote& event = slot.flow;
      append_event_head(snapshot_, event.time, event.kind);
      snapshot_ += "flow=";
      jsonl::append_integer(snapshot_, event.flow);
      snapshot_ += " src=";
      jsonl::append_integer(snapshot_, event.source);
      snapshot_ += " dst=";
      if (event.destination == net::kInvalidNode) {
        snapshot_ += '-';
      } else {
        jsonl::append_integer(snapshot_, event.destination);
      }
      snapshot_ += " attempts=";
      jsonl::append_integer(snapshot_, event.attempts);
      snapshot_ += " bw_bps=";
      append_fixed0(snapshot_, event.bandwidth_bps);
      snapshot_ += " active=";
      jsonl::append_integer(snapshot_, event.active_flows);
      break;
    }
    case Slot::Kind::kNote:
      append_event_head(snapshot_, slot.note.time, slot.note.kind);
      util::append_json_escaped(snapshot_, slot.note.detail);
      break;
  }
  snapshot_ += "\"}\n";
}

std::size_t FlightRecorder::trigger(double time, std::string_view reason) {
  ++triggers_;
  if (out_ == nullptr || dumps_written_ >= options_.max_dumps) {
    return 0;
  }
  ++dumps_written_;
  snapshot_.clear();
  snapshot_ += "{\"flight\":\"snapshot\",\"reason\":\"";
  util::append_json_escaped(snapshot_, reason);
  snapshot_ += "\",\"t\":";
  jsonl::append_number(snapshot_, time);
  snapshot_ += ",\"seq\":";
  jsonl::append_integer(snapshot_, dumps_written_);
  snapshot_ += ",\"entries\":";
  jsonl::append_integer(snapshot_, size_);
  snapshot_ += "}\n";
  // Oldest first: next_ is 0 until the ring is full, then the oldest slot.
  for (std::size_t i = 0; i < size_; ++i) {
    append_line(ring_[(next_ + i) % size_]);
  }
  out_->write(snapshot_.data(), static_cast<std::streamsize>(snapshot_.size()));
  return size_;
}

void FlightRecorder::clear() {
  size_ = 0;
  next_ = 0;
}

}  // namespace anyqos::obs
