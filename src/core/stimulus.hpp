// Stimulus awareness: the basic level.
//
// Tracks each observed signal with a recency-weighted mean/variance model,
// mirrors raw readings into the knowledge base, and flags *novel* stimuli —
// readings far from the learned baseline — as events. This is the level a
// purely reactive (non-self-aware) system also has; everything above it is
// what the paper adds.
#pragma once

#include <map>
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
  struct Params {
    double alpha = 0.1;        ///< EWMA reactivity for the baseline model
    double novelty_z = 3.0;    ///< |z| threshold for an event
    std::size_t min_samples = 8;  ///< suppress events during warm-up
  };

  StimulusAwareness() : StimulusAwareness(Params{}) {}
  explicit StimulusAwareness(Params p) : p_(p) {}

  [[nodiscard]] Level level() const override { return Level::Stimulus; }
  [[nodiscard]] std::string name() const override { return "stimulus"; }

  /// Mirrors each observed signal to the KB (key = signal name, Public) and
  /// writes "stimulus.<sig>.novel" = z-score when an event fires.
  void update(double t, const Observation& obs, KnowledgeBase& kb) override;

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
  /// A signal's baseline model and the KB keys it writes (cached ids).
  struct Model {
    explicit Model(double alpha) : var(alpha) {}
    learn::EwmaVar var;
    KnowledgeBase::KeyId raw = KnowledgeBase::kNoKey;
    KnowledgeBase::KeyId baseline = KnowledgeBase::kNoKey;
    KnowledgeBase::KeyId novel = KnowledgeBase::kNoKey;
  };

  Params p_;
  std::map<std::string, Model> models_;
  std::vector<StimulusEvent> events_;
  KnowledgeIds ids_;
};

}  // namespace sa::core
