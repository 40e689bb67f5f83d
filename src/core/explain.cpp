#include "core/explain.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace sa::core {

std::string Explanation::render() const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(3);
  if (!from_mode.empty()) {
    // Degradation transition (core::DegradationPolicy), not a decision.
    os << (decision.action == "recover" ? "Recovered " : "Degraded ")
       << from_mode << "→" << to_mode << " at t=" << t << ": "
       << decision.rationale;
    if (trace_id != 0) os << ", trace #" << trace_id;
    return os.str();
  }
  os << "[t=" << t << "] " << agent << " chose '" << decision.action << "'";
  if (!decision.rationale.empty()) os << " because " << decision.rationale;
  os << ".";
  if (!decision.considered.empty()) {
    os << " Alternatives considered:";
    for (const auto& opt : decision.considered) {
      os << ' ' << opt.action << "(" << opt.score << ")";
    }
    os << ".";
  }
  if (!evidence.empty()) {
    os << " Evidence:";
    for (const auto& ev : evidence) {
      os << ' ' << ev.key << "=" << ev.value << " [conf " << ev.confidence
         << "]";
    }
    os << ".";
  }
  if (has_goal) os << " Goal utility at decision time: " << goal_utility << ".";
  if (trace_id != 0) {
    os << " Trace: decision #" << trace_id;
    if (!cited.empty()) {
      os << " from evidence";
      for (std::size_t i = 0; i < cited.size(); ++i) {
        os << (i == 0 ? " #" : ", #") << cited[i];
      }
    }
    os << ".";
  }
  return os.str();
}

std::vector<Explanation> Explainer::snapshot(std::size_t last_n) const {
  const std::size_t n = std::min(last_n, log_.size());
  std::vector<Explanation> out;
  out.reserve(n);
  for (std::size_t i = log_.size() - n; i < log_.size(); ++i) {
    out.push_back(log_[i]);
  }
  return out;
}

void Explainer::record(Explanation e) {
  if (Explanation* slot = next()) *slot = std::move(e);
}

Explanation* Explainer::next() {
  ++decisions_;
  if (!enabled_ || log_.capacity() == 0) return nullptr;
  ++explained_;
  return &log_.push_slot();
}

}  // namespace sa::core
