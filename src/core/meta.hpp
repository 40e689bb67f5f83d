// Meta-self-awareness: awareness of one's own awareness.
//
// The highest level in the framework (Morin [42]; Cox's metacognitive loop
// [27]). This process does not look at the environment at all — its domain
// is the *other awareness processes* and the decision machinery:
//   * it tracks each process's self-assessed quality over time;
//   * it watches the goal-utility stream with a drift detector;
//   * when utility drifts or a process's quality collapses, it acts *on the
//    system itself*: reconfigure() on stale processes and, on drift,
//    user-registered adaptation hooks (e.g. "reset the policy's bandit").
// That closing of the loop — using self-knowledge to modify how
// self-knowledge is produced and used — is what distinguishes
// meta-self-awareness from plain monitoring (Cox [27]: awareness is not
// merely possessing information but using it to modify goals/behaviour).
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/process.hpp"
#include "learn/drift.hpp"
#include "learn/estimators.hpp"

namespace sa::core {

class MetaSelfAwareness final : public AwarenessProcess {
 public:
  struct Params {
    double quality_alpha = 0.1;      ///< smoothing of per-process quality
    double quality_floor = 0.25;     ///< below this a process is "failing"
    std::size_t grace_updates = 16;  ///< warm-up before judging anyone
    // Drift defaults are deliberately conservative: utility swings from a
    // recurring workload mix are the policy's job (e.g. contextual
    // learners); the meta level steps in only for sustained, structural
    // shifts. Agents facing fast one-way drift should tighten these
    // (see experiment E6).
    double ph_delta = 0.1;           ///< Page-Hinkley tolerance (utility)
    double ph_lambda = 25.0;         ///< Page-Hinkley threshold (utility)
  };

  /// A named run-time adaptation the meta level may trigger.
  using Adaptation = std::function<void()>;

  MetaSelfAwareness() : MetaSelfAwareness(Params{}) {}
  explicit MetaSelfAwareness(Params p)
      : p_(p), drift_(p.ph_delta, p.ph_lambda) {}

  /// Registers a process to watch. Non-owning; must outlive this object.
  void watch(AwarenessProcess& proc);
  /// Registers an adaptation run whenever utility drift is detected.
  void on_drift(std::string name, Adaptation a);

  [[nodiscard]] Level level() const override { return Level::Meta; }
  [[nodiscard]] std::string name() const override { return "meta"; }

  /// Reads "goal.utility" from the KB (the meta level's primary input),
  /// updates quality models, runs the drift detector, fires adaptations.
  /// Publishes "meta.<proc>.quality", "meta.drift.count",
  /// "meta.adaptations".
  void update(double t, const Observation& obs, KnowledgeBase& kb) override;

  [[nodiscard]] std::size_t drift_detections() const noexcept {
    return drifts_;
  }
  [[nodiscard]] std::size_t adaptations_fired() const noexcept {
    return fired_;
  }
  [[nodiscard]] double quality() const override;

 private:
  /// A watched process, its quality model (an entry of qualities_, made
  /// on its first update) and the cached ids of its "meta.<proc>." keys.
  struct Watched {
    AwarenessProcess* proc;
    learn::Ewma* quality = nullptr;
    KnowledgeBase::KeyId k_quality = KnowledgeBase::kNoKey;
    KnowledgeBase::KeyId k_reconfigured = KnowledgeBase::kNoKey;
  };

  Params p_;
  std::vector<Watched> watched_;
  std::map<std::string, learn::Ewma> qualities_;
  KnowledgeIds ids_;
  // Cached ids: the utility streams read (resolved once they exist) and
  // the fixed "meta.*" keys written.
  KnowledgeBase::KeyId k_goal_utility_ = KnowledgeBase::kNoKey;
  KnowledgeBase::KeyId k_goal_trend_ = KnowledgeBase::kNoKey;
  KnowledgeBase::KeyId k_drift_detected_ = KnowledgeBase::kNoKey;
  KnowledgeBase::KeyId k_drift_count_ = KnowledgeBase::kNoKey;
  KnowledgeBase::KeyId k_adaptations_ = KnowledgeBase::kNoKey;
  std::vector<std::pair<std::string, Adaptation>> drift_hooks_;
  learn::PageHinkley drift_;
  std::size_t cooldown_left_ = 0;
  std::size_t updates_ = 0;
  std::size_t drifts_ = 0;
  std::size_t fired_ = 0;
};

}  // namespace sa::core
