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

#include <map>
#include <string>

#include "core/knowledge.hpp"
#include "core/levels.hpp"

namespace sa::core {

/// The sensor samples gathered in one observe phase: signal name → value.
/// Signals not sampled this step (attention!) are simply absent.
using Observation = std::map<std::string, double>;

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
};

}  // namespace sa::core
