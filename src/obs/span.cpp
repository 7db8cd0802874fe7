#include "src/obs/span.h"

#include <ostream>

#include "src/obs/jsonl.h"
#include "src/util/require.h"
#include "src/util/strings.h"

namespace anyqos::obs {

std::vector<AttemptSpan> MemorySpanSink::attempts_for(std::uint64_t request_id) const {
  std::vector<AttemptSpan> children;
  for (const AttemptSpan& span : attempts_) {
    if (span.request_id == request_id) {
      children.push_back(span);
    }
  }
  return children;
}

void MemorySpanSink::clear() {
  attempts_.clear();
  decisions_.clear();
}

void append_jsonl(std::string& line, const AttemptSpan& span) {
  line += "{\"span\":\"attempt\",\"request\":";
  jsonl::append_integer(line, span.request_id);
  line += ",\"id\":";
  jsonl::append_integer(line, span.span_id);
  line += ",\"attempt\":";
  jsonl::append_integer(line, span.attempt_number);
  line += ",\"time\":";
  jsonl::append_number(line, span.time);
  line += ",\"member\":";
  jsonl::append_integer(line, span.member_index);
  line += ",\"node\":";
  jsonl::append_integer(line, span.member_node);
  line += ",\"weights\":[";
  for (std::size_t i = 0; i < span.weights.size(); ++i) {
    if (i > 0) {
      line += ',';
    }
    jsonl::append_number(line, span.weights[i]);
  }
  line += "],\"hops\":";
  jsonl::append_integer(line, span.route_hops);
  line += ",\"bottleneck_bps\":";
  jsonl::append_number(line, span.bottleneck_bps);
  line += ",\"admitted\":";
  jsonl::append_bool(line, span.admitted);
  line += ",\"blocking_link\":";
  if (span.blocking_link.has_value()) {
    jsonl::append_integer(line, *span.blocking_link);
  } else {
    line += "null";
  }
  line += ",\"messages\":";
  jsonl::append_integer(line, span.messages);
  line += ",\"retransmits\":";
  jsonl::append_integer(line, span.retransmits);
  line += ",\"retries_remaining\":";
  jsonl::append_integer(line, span.retries_remaining);
  line += "}\n";
}

void append_jsonl(std::string& line, const DecisionSpan& span) {
  line += "{\"span\":\"decision\",\"request\":";
  jsonl::append_integer(line, span.request_id);
  line += ",\"time\":";
  jsonl::append_number(line, span.start_time);
  line += ",\"source\":";
  jsonl::append_integer(line, span.source);
  line += ",\"bandwidth_bps\":";
  jsonl::append_number(line, span.bandwidth_bps);
  line += ",\"algorithm\":\"";
  util::append_json_escaped(line, span.algorithm);
  line += "\",\"admitted\":";
  jsonl::append_bool(line, span.admitted);
  line += ",\"destination\":";
  if (span.destination_index.has_value()) {
    jsonl::append_integer(line, *span.destination_index);
  } else {
    line += "null";
  }
  line += ",\"attempts\":";
  jsonl::append_integer(line, span.attempts);
  line += ",\"messages\":";
  jsonl::append_integer(line, span.messages);
  line += ",\"max_attempts\":";
  jsonl::append_integer(line, span.max_attempts);
  line += ",\"group_size\":";
  jsonl::append_integer(line, span.group_size);
  line += "}\n";
}

JsonlSpanSink::JsonlSpanSink(std::ostream& out) : out_(&out) {}

void JsonlSpanSink::on_attempt(const AttemptSpan& span) {
  append_jsonl(line_, span);
  write_line();
}

void JsonlSpanSink::on_decision(const DecisionSpan& span) {
  append_jsonl(line_, span);
  write_line();
}

void JsonlSpanSink::write_line() {
  out_->write(line_.data(), static_cast<std::streamsize>(line_.size()));
  line_.clear();
}

void DecisionTracer::begin_request(std::uint64_t request_id, net::NodeId source,
                                   net::Bandwidth bandwidth_bps, std::string algorithm,
                                   std::size_t max_attempts, std::size_t group_size) {
  util::require(sink_ != nullptr, "tracer calls require an attached sink");
  util::require(!in_request_, "previous request span still open");
  in_request_ = true;
  current_ = DecisionSpan{};
  current_.request_id = request_id;
  current_.start_time = now();
  current_.source = source;
  current_.bandwidth_bps = bandwidth_bps;
  current_.algorithm = std::move(algorithm);
  current_.max_attempts = max_attempts;
  current_.group_size = group_size;
}

void DecisionTracer::record_attempt(std::size_t member_index, net::NodeId member_node,
                                    const std::vector<double>& weights, std::size_t route_hops,
                                    net::Bandwidth bottleneck_bps, bool admitted,
                                    std::optional<net::LinkId> blocking_link,
                                    std::uint64_t messages, std::uint64_t retransmits,
                                    std::size_t retries_remaining) {
  util::require(in_request_, "attempt span outside a request span");
  AttemptSpan& span = attempt_;
  span.request_id = current_.request_id;
  span.span_id = next_span_id_++;
  span.attempt_number = ++current_.attempts;
  span.time = now();
  span.member_index = member_index;
  span.member_node = member_node;
  span.weights = weights;  // reuses the capacity earlier attempts left
  span.route_hops = route_hops;
  span.bottleneck_bps = bottleneck_bps;
  span.admitted = admitted;
  span.blocking_link = blocking_link;
  span.messages = messages;
  span.retransmits = retransmits;
  span.retries_remaining = retries_remaining;
  sink_->on_attempt(span);
  ++spans_emitted_;
}

void DecisionTracer::end_request(bool admitted, std::optional<std::size_t> destination_index,
                                 std::uint64_t messages) {
  util::require(in_request_, "decision span closed twice");
  in_request_ = false;
  current_.admitted = admitted;
  current_.destination_index = destination_index;
  current_.messages = messages;
  sink_->on_decision(current_);
  ++spans_emitted_;
}

}  // namespace anyqos::obs
