// Time awareness: history and anticipated futures.
//
// Neisser's extended self, translated: for each tracked signal the process
// maintains an ensemble of competing forecasters, continuously scores them
// against reality (mean absolute error), and publishes the current best
// model's one-step forecast. The ensemble-and-score structure is what makes
// this level legible to meta-self-awareness: the process *knows how wrong
// its own predictions have been*.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/process.hpp"
#include "learn/forecast.hpp"

namespace sa::core {

class TimeAwareness final : public AwarenessProcess {
 public:
  struct Params {
    std::size_t seasonal_period = 0;  ///< >0 adds a Holt-Winters member
    double error_scale = 1.0;         ///< MAE normaliser for quality()
    std::size_t score_horizon = 1;    ///< rank models by h-step error
  };

  /// `kb` must outlive this process.
  explicit TimeAwareness(KnowledgeBase& kb) : TimeAwareness(kb, Params{}) {}
  TimeAwareness(KnowledgeBase& kb, Params p) : p_(p), kb_(kb) {}

  [[nodiscard]] Level level() const override { return Level::Time; }
  [[nodiscard]] std::string name() const override { return "time"; }

  /// Feeds observations to each signal's ensemble; publishes
  /// "forecast.<sig>" (best model, h=1), "forecast.<sig>.mae" and
  /// "forecast.<sig>.model" (index of the winning member).
  void update(double t, const Observation& obs) override;

  /// h-step forecast of `signal` from the currently best member (0 if
  /// unknown signal).
  [[nodiscard]] double forecast(const std::string& signal,
                                std::size_t h = 1) const;

  /// 1/(1 + meanMAE/error_scale): near 1 when predictions are good.
  [[nodiscard]] double quality() const override;
  /// Rebuilds all ensembles from scratch.
  void reconfigure() override;

 private:
  struct Ensemble {
    std::vector<learn::ScoredForecaster> members;
    /// Cached ids of "forecast.<sig>", its ".mae" and ".model".
    KnowledgeBase::KeyId forecast = KnowledgeBase::kNoKey;
    KnowledgeBase::KeyId mae = KnowledgeBase::kNoKey;
    KnowledgeBase::KeyId model = KnowledgeBase::kNoKey;
    [[nodiscard]] std::size_t best() const;
  };
  [[nodiscard]] Ensemble make_ensemble() const;

  Params p_;
  KnowledgeBase& kb_;
  KnowledgeBase::SourceId src_ = 0;  ///< "time", resolved on first update
  std::map<std::string, Ensemble> signals_;
};

}  // namespace sa::core
