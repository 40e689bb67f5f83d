// Self-explanation.
//
// Because a self-aware system acts from explicit self-models, it can report
// *why* it acted (Schubert [25]; Cox [28]; paper Sections III and VI:
// "self-explanation, a form of reporting in which the reasons behind action
// (or inaction) are made clear"). The Explainer captures, per decision, the
// chosen action, the alternatives with their scores, the knowledge items
// consulted (with value and confidence at decision time) and the goal
// state; render() produces the human-readable account. Experiment E8
// measures the overhead and coverage of this machinery.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "sim/ring.hpp"
#include "sim/trace.hpp"

namespace sa::core {

/// A knowledge item as it stood when the decision was taken.
struct EvidenceSnapshot {
  std::string key;
  double value = 0.0;
  double confidence = 0.0;
};

/// The full account of one decision.
struct Explanation {
  double t = 0.0;
  std::string agent;
  Decision decision;
  std::vector<EvidenceSnapshot> evidence;
  double goal_utility = 0.0;
  bool has_goal = false;
  /// Trace id of the decide span (0 when the agent ran untraced). With a
  /// tracer attached, every explanation is reproducible from the exported
  /// trace file: render() cites these ids.
  sim::TraceId trace_id = 0;
  /// Trace ids of the evidence consulted (observation + stimulus chains).
  std::vector<sim::TraceId> cited;
  /// Set by core::DegradationPolicy when this entry records a level
  /// transition rather than an action choice: the mode stepped from/to
  /// ("meta", "goal", "stimulus", "reactive"). render() then produces the
  /// transition form ("Degraded meta→goal at t=…: …, trace #N").
  std::string from_mode, to_mode;

  /// Renders a human-readable explanation paragraph.
  [[nodiscard]] std::string render() const;
};

/// Collects explanations and tracks coverage (decisions explained /
/// decisions made). Disabled instances cost one branch per decision. The
/// log is a sim::Ring holding the most recent `capacity` explanations;
/// coverage counts every explained decision, including evicted ones.
class Explainer {
 public:
  explicit Explainer(bool enabled = true) : enabled_(enabled) {}

  /// Counts a decision; stores the explanation when enabled.
  void record(Explanation e);
  /// Counts a decision that produced no explanation (coverage accounting).
  void note_unexplained() { ++decisions_; }

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool e) noexcept { enabled_ = e; }
  [[nodiscard]] std::size_t size() const noexcept { return log_.size(); }
  [[nodiscard]] std::size_t decisions() const noexcept { return decisions_; }
  /// Fraction of decisions that were explained (retained or since
  /// evicted from the ring).
  [[nodiscard]] double coverage() const noexcept {
    return decisions_ == 0
               ? 0.0
               : static_cast<double>(explained_) /
                     static_cast<double>(decisions_);
  }
  /// The i-th retained explanation, oldest first; throws
  /// std::out_of_range if i >= size().
  [[nodiscard]] const Explanation& at(std::size_t i) const {
    return log_.at(i);
  }
  /// Deep copy of the newest min(last_n, size()) explanations in
  /// chronological order. This is the ring's one read path that hands out
  /// owned values rather than references into the ring — the discipline
  /// every cross-thread consumer must follow: the serve layer's /status
  /// publisher calls it on the sim thread at a step boundary and publishes
  /// the copy for server threads, so no reader ever aliases a slot that
  /// record() may overwrite.
  [[nodiscard]] std::vector<Explanation> snapshot(std::size_t last_n) const;
  /// Retained explanations in chronological order (snapshot of the whole
  /// ring).
  [[nodiscard]] std::vector<Explanation> all() const {
    return snapshot(log_.size());
  }
  [[nodiscard]] std::optional<Explanation> last() const {
    if (log_.empty()) return std::nullopt;
    return log_.back();
  }
  /// Rendered explanation of the most recent decision ("" if none).
  [[nodiscard]] std::string why_last() const {
    const auto newest = snapshot(1);
    return newest.empty() ? std::string{} : newest.back().render();
  }
  /// Keeps memory bounded on long runs: the log holds the most recent
  /// `capacity` explanations. Shrinking drops the oldest.
  void set_capacity(std::size_t cap) { log_.set_capacity(cap); }
  void clear() {
    log_.clear();
    decisions_ = 0;
    explained_ = 0;
  }

 private:
  bool enabled_;
  sim::Ring<Explanation> log_{4096};
  std::size_t decisions_ = 0;
  std::size_t explained_ = 0;
};

}  // namespace sa::core
