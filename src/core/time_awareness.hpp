// Time awareness: history and anticipated futures.
//
// Neisser's extended self, translated: for each tracked signal the process
// maintains an ensemble of competing forecasters, continuously scores them
// against reality (mean absolute error), and publishes the current best
// model's one-step forecast. The ensemble-and-score structure is what makes
// this level legible to meta-self-awareness: the process *knows how wrong
// its own predictions have been*.
//
// State is dense: one learn::ForecastEnsemble record per signal slot, made
// on the signal's first reading, and every ensemble's pending predictions
// (and season) packed into one vector of doubles.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/process.hpp"
#include "learn/forecast.hpp"

namespace sa::core {

class TimeAwareness final : public AwarenessProcess {
 public:
  struct Params {
    std::size_t seasonal_period = 0;  ///< >1 adds a Holt-Winters member
    double error_scale = 1.0;         ///< MAE normaliser for quality()
    std::size_t score_horizon = 1;    ///< rank models by h-step error
  };

  /// `kb` must outlive this process.
  explicit TimeAwareness(KnowledgeBase& kb) : TimeAwareness(kb, Params{}) {}
  TimeAwareness(KnowledgeBase& kb, Params p)
      : p_(p), shape_{p.score_horizon, p.seasonal_period}, kb_(kb) {}

  [[nodiscard]] Level level() const override { return Level::Time; }
  [[nodiscard]] std::string name() const override { return "time"; }

  /// Feeds observations to each signal's ensemble; publishes
  /// "forecast.<sig>" (best model, h=1), "forecast.<sig>.mae" and
  /// "forecast.<sig>.model" (index of the winning member). Every
  /// observation must come from one signal table (see bind_signals()).
  void update(double t, const Observation& obs) override;

  /// h-step forecast of `signal` from the currently best member (0 if
  /// unknown signal).
  [[nodiscard]] double forecast(std::string_view signal,
                                std::size_t h = 1) const;

  /// Mean over tracked signals of 1/(1 + MAE/error_scale) of each best
  /// member, summed in signal-name order: near 1 when predictions are good.
  [[nodiscard]] double quality() const override;
  /// Rebuilds all ensembles from scratch.
  void reconfigure() override;

 private:
  static constexpr std::uint32_t kNoTail = 0xffffffffu;

  /// One signal's ensemble (made once it has a reading), the offset of
  /// its outside state in tails_, and the cached ids of "forecast.<sig>",
  /// its ".mae" and ".model".
  struct Signal {
    learn::ForecastEnsemble ens;
    std::uint32_t tail = kNoTail;
    KnowledgeBase::KeyId forecast = KnowledgeBase::kNoKey;
    KnowledgeBase::KeyId mae = KnowledgeBase::kNoKey;
    KnowledgeBase::KeyId model = KnowledgeBase::kNoKey;
  };
  /// The best member's confidence: 1/(1 + MAE/error_scale), 0 unscored.
  [[nodiscard]] double confidence(const Signal& s, std::size_t best) const;

  Params p_;
  learn::ForecastEnsemble::Shape shape_;
  KnowledgeBase& kb_;
  KnowledgeBase::SourceId src_ = 0;  ///< "time", resolved on first update
  const SignalTable* signals_ = nullptr;  ///< bound on the first update
  std::vector<Signal> state_;             ///< by signal slot
  std::vector<double> tails_;             ///< every Signal's outside state
};

}  // namespace sa::core
