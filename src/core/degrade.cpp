#include "core/degrade.hpp"

#include <sstream>

namespace sa::core {

DegradationPolicy::DegradationPolicy(SelfAwareAgent& agent, Params p)
    : agent_(agent), params_(p) {
  if (params_.breach_updates == 0) params_.breach_updates = 1;
  if (params_.recover_updates == 0) params_.recover_updates = 1;
}

const char* DegradationPolicy::mode_name(Mode m) noexcept {
  switch (m) {
    case Mode::Meta: return "meta";
    case Mode::Goal: return "goal";
    case Mode::Stimulus: return "stimulus";
    case Mode::Reactive: return "reactive";
  }
  return "?";
}

LevelSet DegradationPolicy::level_set_for(Mode m) const {
  // set_active_levels clamps to the constructed set, so each rung only
  // needs to describe the ceiling, not intersect explicitly.
  switch (m) {
    case Mode::Meta:
      return agent_.levels();
    case Mode::Goal: {
      LevelSet s = agent_.levels();
      s.unset(Level::Meta);
      return s;
    }
    case Mode::Stimulus:
      return LevelSet{Level::Stimulus};
    case Mode::Reactive:
      return LevelSet{};
  }
  return agent_.levels();
}

void DegradationPolicy::update(double t, sim::TraceId trace) {
  // Dwell accrues over the interval just elapsed, while degraded.
  if (seen_update_ && mode_ != Mode::Meta && t > last_t_) {
    dwell_ += t - last_t_;
  }
  last_t_ = t;
  seen_update_ = true;

  const KnowledgeBase& kb = agent_.knowledge();
  const double active = kb.number(kb.find("fault.active"));
  if (active >= params_.fault_active_breach) {
    clean_streak_ = 0;
    if (++breach_streak_ >= params_.breach_updates &&
        mode_ != Mode::Reactive) {
      breach_streak_ = 0;
      std::ostringstream why;
      why << "fault pressure (" << active << " active)";
      transition(t, static_cast<Mode>(rung() + 1), why.str(), trace);
    }
  } else {
    breach_streak_ = 0;
    if (++clean_streak_ >= params_.recover_updates && mode_ != Mode::Meta) {
      clean_streak_ = 0;
      transition(t, static_cast<Mode>(rung() - 1), "triggers clear", trace);
    }
  }
}

DegradationPolicy::State DegradationPolicy::export_state() const {
  State s;
  s.mode = mode_;
  s.breach_streak = breach_streak_;
  s.clean_streak = clean_streak_;
  s.degradations = degradations_;
  s.recoveries = recoveries_;
  s.dwell = dwell_;
  s.last_t = last_t_;
  s.seen_update = seen_update_;
  s.last_trigger = last_trigger_;
  return s;
}

void DegradationPolicy::transition(double t, Mode to, const std::string& why,
                                   sim::TraceId trace) {
  const Mode from = mode_;
  mode_ = to;
  last_trigger_ = why;
  const bool down = static_cast<std::size_t>(to) > static_cast<std::size_t>(from);
  if (down) {
    ++degradations_;
  } else {
    ++recoveries_;
  }
  agent_.set_active_levels(level_set_for(to));

  Explanation* e = agent_.explainer().next();
  if (e == nullptr) return;
  // A recycled log entry keeps its old contents: set every field.
  e->t = t;
  e->action_index = 0;
  e->rationale = why;
  e->scores.clear();
  e->evidence.clear();
  e->goal_utility = 0.0;
  e->has_goal = false;
  e->trace_id = trace;
  e->cited.clear();
  e->from_mode = mode_name(from);
  e->to_mode = mode_name(to);
  e->recovered = !down;
}

}  // namespace sa::core
