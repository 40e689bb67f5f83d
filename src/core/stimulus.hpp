// Stimulus awareness: the basic level.
//
// Tracks each observed signal with a recency-weighted mean/variance model,
// mirrors raw readings into the knowledge base, and flags *novel* stimuli —
// readings far from the learned baseline — as events. This is the level a
// purely reactive (non-self-aware) system also has; everything above it is
// what the paper adds.
#pragma once

#include <string>
#include <vector>

#include "core/process.hpp"
#include "learn/estimators.hpp"
#include "sim/trace.hpp"

namespace sa::core {

/// An out-of-baseline reading detected this step.
struct StimulusEvent {
  std::string signal;
  double value = 0.0;
  double zscore = 0.0;
  double time = 0.0;
  /// Causal chain id assigned by a traced agent (0 when untraced); lets a
  /// decision cite the exact stimulus that informed it.
  sim::TraceId trace_id = 0;
};

class StimulusAwareness final : public AwarenessProcess {
 public:
  static constexpr double kAlpha = 0.1;  ///< EWMA reactivity of a baseline
  static constexpr double kNoveltyZ = 3.0;  ///< |z| threshold for an event
  static constexpr std::size_t kMinSamples = 8;  ///< warm-up, no events

  /// `kb` must outlive this process.
  explicit StimulusAwareness(KnowledgeBase& kb) : kb_(kb) {}

  [[nodiscard]] Level level() const override { return Level::Stimulus; }
  [[nodiscard]] std::string name() const override { return "stimulus"; }

  /// Mirrors each observed signal to the KB (key = signal name, Public) and
  /// writes "stimulus.<sig>.novel" = z-score when an event fires. Every
  /// observation must come from one signal table (see bind_signals()).
  void update(double t, const Observation& obs) override;

  /// Events fired on the most recent update().
  [[nodiscard]] const std::vector<StimulusEvent>& events() const noexcept {
    return events_;
  }
  /// Mutable view for the owning agent to stamp trace ids onto this
  /// step's events.
  [[nodiscard]] std::vector<StimulusEvent>& events() noexcept {
    return events_;
  }
  /// Fraction of known signals past warm-up.
  [[nodiscard]] double quality() const override;
  /// Forgets baselines (meta-triggered on drift).
  void reconfigure() override;

 private:
  /// A signal's baseline model and the KB keys it writes (cached ids). A
  /// model with no samples is one the process does not have yet: it is
  /// made on the signal's first reading, and reconfigure() unmakes it.
  struct Model {
    learn::EwmaVar var{kAlpha};
    KnowledgeBase::KeyId raw = KnowledgeBase::kNoKey;
    KnowledgeBase::KeyId baseline = KnowledgeBase::kNoKey;
    KnowledgeBase::KeyId novel = KnowledgeBase::kNoKey;
  };

  KnowledgeBase& kb_;
  KnowledgeBase::SourceId src_ = 0;  ///< "stimulus", resolved on first update
  const SignalTable* signals_ = nullptr;  ///< bound on the first update
  std::vector<Model> models_;             ///< by signal slot
  std::vector<StimulusEvent> events_;
};

}  // namespace sa::core
