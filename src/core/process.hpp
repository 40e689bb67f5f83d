// The awareness-process abstraction.
//
// The reference architecture (Lewis et al. [41]) models a self-aware system
// as a collection of processes, each realising one or more levels of
// self-awareness, reading observations and depositing derived knowledge
// into the knowledge base it was constructed with. Processes self-assess
// (quality()) so the meta level can reason about them, and expose
// reconfigure() as the hook through which meta-self-awareness acts back on
// the awareness machinery itself.
#pragma once

#include <stdexcept>
#include <string>

#include "core/knowledge.hpp"
#include "core/levels.hpp"
#include "core/observation.hpp"

namespace sa::core {

/// Base class for all awareness processes.
class AwarenessProcess {
 public:
  virtual ~AwarenessProcess() = default;

  /// Which self-awareness level this process realises.
  [[nodiscard]] virtual Level level() const = 0;
  /// Stable identifier, used in knowledge keys and explanations.
  [[nodiscard]] virtual std::string name() const = 0;

  /// Consumes this step's observations; derives and stores knowledge.
  virtual void update(double t, const Observation& obs) = 0;

  /// Self-assessed quality in [0,1] — "how well is my model doing?".
  /// 1.0 means fully confident; the default suits stateless processes.
  [[nodiscard]] virtual double quality() const { return 1.0; }

  /// Invoked by the meta level when it judges this process stale
  /// (e.g. after concept drift). Default: no-op.
  virtual void reconfigure() {}

 protected:
  /// For processes that keep per-signal state by slot: binds `table` to
  /// the first signal table an observation brings. Returns false for an
  /// observation over no table (nothing sampled). Throws
  /// std::invalid_argument when `obs` indexes a different table, whose
  /// slots would not line up with the state already kept.
  static bool bind_signals(const SignalTable*& table, const Observation& obs) {
    if (obs.signals() == nullptr) return false;
    if (table == nullptr) table = obs.signals();
    if (table != obs.signals()) {
      throw std::invalid_argument(
          "awareness process: observations must share one signal table");
    }
    return true;
  }
};

}  // namespace sa::core
