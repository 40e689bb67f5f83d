#include "sim/telemetry.hpp"

#include <chrono>

namespace sa::sim {

namespace {

// Linear-scan intern table: category/subject populations are small (a few
// to a few hundred) and interning happens at wiring time, so a scan keeps
// the data structure trivially deterministic.
std::uint32_t intern(std::vector<std::string>& names, std::string_view name) {
  for (std::uint32_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return i;
  }
  names.emplace_back(name);
  return static_cast<std::uint32_t>(names.size() - 1);
}

}  // namespace

TelemetryBus::TelemetryBus() {
  // Must match the kDecision/kObservation/kFailure constants.
  category_names_ = {"decision", "observation", "failure"};
  counts_.resize(category_names_.size());
}

SubjectId TelemetryBus::intern_subject(std::string_view name) {
  return intern(subject_names_, name);
}

void TelemetryBus::record(double t, CategoryId category, SubjectId subject,
                          double value, std::string_view detail) {
  ++counts_.at(category);
  ++total_;
  if (sinks_.empty()) return;
  const TelemetryEvent ev{t, category, subject, value, detail};
  for (TelemetrySink* sink : sinks_) sink->on_event(ev);
}

void RingBufferSink::on_event(const TelemetryEvent& ev) {
  ++seen_;
  ring_.push(
      Rec{ev.t, ev.category, ev.subject, ev.value, std::string(ev.detail)});
}

std::vector<const RingBufferSink::Rec*> RingBufferSink::by_category(
    CategoryId c) const {
  std::vector<const Rec*> out;
  for (const Rec& r : ring_) {
    if (r.category == c) out.push_back(&r);
  }
  return out;
}

std::vector<RingBufferSink::Rec> FanoutSink::Subscription::drain(
    long wait_ms) {
  std::unique_lock lk(mu_);
  if (queue_.empty() && wait_ms > 0) {
    cv_.wait_for(lk, std::chrono::milliseconds(wait_ms),
                 [this] { return !queue_.empty(); });
  }
  std::vector<RingBufferSink::Rec> out;
  out.swap(queue_);
  return out;
}

bool FanoutSink::Subscription::offer(const TelemetryEvent& ev) {
  std::unique_lock lk(mu_, std::try_to_lock);
  if (!lk.owns_lock() || queue_.size() >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  queue_.push_back(
      {ev.t, ev.category, ev.subject, ev.value, std::string(ev.detail)});
  delivered_.fetch_add(1, std::memory_order_relaxed);
  cv_.notify_one();
  return true;
}

std::shared_ptr<FanoutSink::Subscription> FanoutSink::subscribe() {
  auto sub = std::make_shared<Subscription>(queue_capacity_);
  const std::scoped_lock lk(mu_);
  subs_.push_back(sub);
  return sub;
}

void FanoutSink::unsubscribe(const std::shared_ptr<Subscription>& sub) {
  const std::scoped_lock lk(mu_);
  std::erase(subs_, sub);
}

std::size_t FanoutSink::subscribers() const {
  const std::scoped_lock lk(mu_);
  return subs_.size();
}

void FanoutSink::on_event(const TelemetryEvent& ev) {
  const std::unique_lock lk(mu_, std::try_to_lock);
  if (!lk.owns_lock()) {
    dropped_contended_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (subs_.empty()) return;
  offered_.fetch_add(1, std::memory_order_relaxed);
  for (const auto& sub : subs_) {
    if (!sub->offer(ev)) {
      dropped_overflow_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

}  // namespace sa::sim
