#include "sim/trace.hpp"

#include <algorithm>
#include <cassert>

namespace sa::sim {

NameId Tracer::intern_name(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<NameId>(i);
  }
  names_.emplace_back(name);
  return static_cast<NameId>(names_.size() - 1);
}

Tracer::Span Tracer::span(double t, SubjectId subject, NameId name) {
  Event ev;
  ev.kind = Event::Kind::Begin;
  ev.t = t;
  ev.subject = subject;
  ev.name = name;
  ev.id = compose(++counter_);
  const std::size_t index = events_.size();
  events_.push_back(std::move(ev));
  open_.push_back(index);
  ++span_count_;
  return Span{this, index, events_[index].id, t};
}

void Tracer::flow(double t, FlowPhase phase, TraceId id, SubjectId subject,
                  NameId name) {
  if (id == 0) return;
  Event ev;
  ev.kind = Event::Kind::Flow;
  ev.t = t;
  ev.subject = subject;
  ev.name = name;
  ev.id = id;
  ev.phase = phase;
  events_.push_back(std::move(ev));
  ++flow_count_;
}

void Tracer::close(std::size_t event_index, double t) {
  const Event& begin = events_[event_index];
  assert(begin.kind == Event::Kind::Begin);
  Event ev;
  ev.kind = Event::Kind::End;
  ev.t = t;
  ev.subject = begin.subject;
  ev.name = begin.name;
  ev.id = begin.id;
  events_.push_back(std::move(ev));
  // Spans close LIFO in practice; tolerate out-of-order closes anyway.
  const auto it = std::find(open_.rbegin(), open_.rend(), event_index);
  if (it != open_.rend()) open_.erase(std::next(it).base());
}

void Tracer::clear() {
  events_.clear();
  open_.clear();
  counter_ = 0;
  span_count_ = 0;
  flow_count_ = 0;
}

void Tracer::Span::arg(NameId key, double value) {
  if (tracer_ == nullptr) return;
  tracer_->events_[event_].args.emplace_back(key, value);
}

void Tracer::Span::end() {
  if (tracer_ == nullptr) return;
  tracer_->close(event_, t_);
  tracer_ = nullptr;
}

void Tracer::Span::end_at(double t) {
  if (tracer_ == nullptr) return;
  tracer_->close(event_, t);
  tracer_ = nullptr;
}

}  // namespace sa::sim
