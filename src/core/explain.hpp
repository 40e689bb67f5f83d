// Self-explanation.
//
// Because a self-aware system acts from explicit self-models, it can report
// *why* it acted (Schubert [25]; Cox [28]; paper Sections III and VI:
// "self-explanation, a form of reporting in which the reasons behind action
// (or inaction) are made clear"). The Explainer keeps, per decision, the
// chosen action's index, every action's score, the knowledge items
// consulted (by key id, with value and confidence at decision time) and
// the goal state: ids and numbers, no names. The text is made only when
// someone reads it: SelfAwareAgent::render() names the ids from the
// agent's action table and knowledge base. Experiment E8 measures the
// overhead and coverage of this machinery.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/knowledge.hpp"
#include "sim/ring.hpp"
#include "sim/trace.hpp"

namespace sa::core {

/// A knowledge item as it stood when the decision was taken.
struct EvidenceSnapshot {
  KnowledgeBase::KeyId key = 0;
  double value = 0.0;
  double confidence = 0.0;
};

/// The full account of one decision, or of one degradation transition.
struct Explanation {
  double t = 0.0;
  std::size_t action_index = 0;
  std::string rationale;
  std::vector<double> scores;  ///< Decision::scores, by action index
  std::vector<EvidenceSnapshot> evidence;
  double goal_utility = 0.0;
  bool has_goal = false;
  /// Trace id of the decide span (0 when the agent ran untraced). With a
  /// tracer attached, every explanation is reproducible from the exported
  /// trace file: the rendered text cites these ids.
  sim::TraceId trace_id = 0;
  /// Trace ids of the evidence consulted (observation + stimulus chains).
  std::vector<sim::TraceId> cited;
  /// Set by core::DegradationPolicy when this entry records a level
  /// transition rather than an action choice: the modes stepped from and
  /// to, as DegradationPolicy::mode_name spells them, and whether the
  /// step was a recovery. Null for a decision.
  const char* from_mode = nullptr;
  const char* to_mode = nullptr;
  bool recovered = false;
};

/// Collects explanations and tracks coverage (decisions explained /
/// decisions made). Disabled instances cost one branch per decision. The
/// log is a sim::Ring holding the most recent 4096 explanations; coverage
/// counts every explained decision, including evicted ones.
class Explainer {
 public:
  /// Counts a decision and, when enabled, returns the log entry to write
  /// its explanation into (null when disabled): the one write path. Once
  /// the log is full the entry is the oldest one, recycled with its
  /// contents, so its strings and vectors keep their storage: the caller
  /// must set every field.
  Explanation* next() {
    ++decisions_;
    if (!enabled_) return nullptr;
    ++explained_;
    return &log_.push_slot();
  }
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
  /// std::out_of_range if i >= size(). A reference into the ring: the
  /// next next() may recycle it, so a reader on another thread must
  /// render (or copy) on the thread that writes — the serve layer's
  /// /status publisher renders on the sim thread at a step boundary.
  [[nodiscard]] const Explanation& at(std::size_t i) const {
    return log_.at(i);
  }
  void clear() {
    log_.clear();
    decisions_ = 0;
    explained_ = 0;
  }

 private:
  bool enabled_ = true;
  sim::Ring<Explanation> log_{4096};
  std::size_t decisions_ = 0;
  std::size_t explained_ = 0;
};

}  // namespace sa::core
