#include "trace/trace.h"

namespace memfs::trace {

TraceContext Tracer::StartTrace(std::string_view name,
                                std::string_view category,
                                std::uint32_t node) {
  const TraceId trace = next_trace_id_++;
  const SpanId span = Open(trace, /*parent=*/0, name, category, node);
  return TraceContext{this, trace, span, node};
}

TraceContext Tracer::StartSpan(const TraceContext& parent,
                               std::string_view name,
                               std::string_view category) {
  return StartSpanOn(parent, name, category, parent.node);
}

TraceContext Tracer::StartSpanOn(const TraceContext& parent,
                                 std::string_view name,
                                 std::string_view category,
                                 std::uint32_t node) {
  const SpanId span =
      Open(parent.trace_id, parent.span_id, name, category, node);
  return TraceContext{this, parent.trace_id, span, node};
}

SpanId Tracer::Open(TraceId trace, SpanId parent, std::string_view name,
                    std::string_view category, std::uint32_t node) {
  const SpanId id = next_span_id_++;
  SpanRecord& record = open_[id];
  record.trace_id = trace;
  record.span_id = id;
  record.parent_id = parent;
  record.name.assign(name);
  record.category.assign(category);
  record.start = sim_->now();
  record.end = record.start;
  record.node = node;
  return id;
}

void Tracer::AddEvent(const TraceContext& span, std::string_view name) {
  auto it = open_.find(span.span_id);
  if (it == open_.end()) return;
  it->second.events.push_back(SpanEvent{std::string(name), sim_->now()});
}

void Tracer::Annotate(const TraceContext& span, std::string_view key,
                      std::string value) {
  auto it = open_.find(span.span_id);
  if (it == open_.end()) return;
  it->second.args.emplace_back(std::string(key), std::move(value));
}

void Tracer::EndSpan(const TraceContext& span) {
  auto it = open_.find(span.span_id);
  if (it == open_.end()) return;
  it->second.end = sim_->now();
  finished_.push_back(std::move(it->second));
  open_.erase(it);
  while (finished_.size() > config_.max_finished_spans) {
    finished_.pop_front();
    ++dropped_;
  }
}

}  // namespace memfs::trace
