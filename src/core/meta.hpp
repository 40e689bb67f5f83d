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

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "core/process.hpp"
#include "learn/drift.hpp"
#include "learn/estimators.hpp"

namespace sa::core {

class MetaSelfAwareness final : public AwarenessProcess {
 public:
  static constexpr double kQualityAlpha = 0.1;  ///< quality smoothing
  static constexpr double kQualityFloor = 0.25;  ///< below: "failing"

  struct Params {
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

  /// `kb` must outlive this process.
  explicit MetaSelfAwareness(KnowledgeBase& kb)
      : MetaSelfAwareness(kb, Params{}) {}
  MetaSelfAwareness(KnowledgeBase& kb, Params p)
      : p_(p), kb_(kb), drift_(p.ph_delta, p.ph_lambda) {}

  /// Registers a process to watch. Non-owning; must outlive this object.
  /// Processes sharing a name share one quality model.
  void watch(AwarenessProcess& proc);
  /// Registers an adaptation run whenever utility drift is detected.
  void on_drift(std::string name, Adaptation a);

  [[nodiscard]] Level level() const override { return Level::Meta; }
  [[nodiscard]] std::string name() const override { return "meta"; }

  /// Reads "goal.utility" from the KB (the meta level's primary input),
  /// updates quality models, runs the drift detector, fires adaptations.
  /// Publishes "meta.<proc>.quality", "meta.drift.count",
  /// "meta.adaptations".
  void update(double t, const Observation& obs) override;

  [[nodiscard]] std::size_t drift_detections() const noexcept {
    return drifts_;
  }
  [[nodiscard]] std::size_t adaptations_fired() const noexcept {
    return fired_;
  }
  /// Mean smoothed quality of the watched processes, summed in process-
  /// name order (1 before any is assessed, 0 before the first update).
  [[nodiscard]] double quality() const override;

 private:
  static constexpr std::size_t kNoModel = static_cast<std::size_t>(-1);

  /// A watched process, the index of its quality model in models_ (set on
  /// its first assessment) and the cached ids of its "meta.<proc>." keys.
  struct Watched {
    AwarenessProcess* proc;
    std::size_t model = kNoModel;
    KnowledgeBase::KeyId k_quality = KnowledgeBase::kNoKey;
    KnowledgeBase::KeyId k_reconfigured = KnowledgeBase::kNoKey;
  };
  /// Resolves `w`'s quality model: the one of any process with its name,
  /// else a new one. Returns true when the model is new.
  bool resolve_model(Watched& w);

  Params p_;
  KnowledgeBase& kb_;
  KnowledgeBase::SourceId src_ = 0;  ///< "meta", resolved on first update
  std::vector<Watched> watched_;
  /// One smoothed quality per distinct process name, in ascending name
  /// order (quality()'s order); made on the first assessment under a name.
  std::vector<learn::Ewma> models_;
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
