#include "core/meta.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <string>

namespace sa::core {

void MetaSelfAwareness::watch(AwarenessProcess& proc) {
  watched_.push_back({&proc});
}

bool MetaSelfAwareness::resolve_model(Watched& w) {
  const std::string name = w.proc->name();
  // A model's name is that of the processes resolved to it.
  const auto name_of = [this](std::size_t m) {
    for (const Watched& o : watched_) {
      if (o.model == m) return o.proc->name();
    }
    return std::string{};
  };
  std::size_t pos = 0;
  for (; pos < models_.size(); ++pos) {
    const std::string other = name_of(pos);
    if (other == name) {
      w.model = pos;
      return false;
    }
    if (name < other) break;
  }
  models_.insert(models_.begin() + static_cast<std::ptrdiff_t>(pos),
                 learn::Ewma(kQualityAlpha));
  for (Watched& o : watched_) {
    if (o.model != kNoModel && o.model >= pos) ++o.model;
  }
  w.model = pos;
  return true;
}

void MetaSelfAwareness::replace(const AwarenessProcess& old,
                                AwarenessProcess& now) {
  const auto it =
      std::find_if(watched_.begin(), watched_.end(),
                   [&old](const Watched& w) { return w.proc == &old; });
  if (it == watched_.end() || old.name() != now.name()) {
    throw std::invalid_argument(
        "MetaSelfAwareness::replace: not a watched process of that name");
  }
  it->proc = &now;
}

void MetaSelfAwareness::on_drift(std::string name, Adaptation a) {
  drift_hooks_.emplace_back(std::move(name), std::move(a));
}

void MetaSelfAwareness::update(double t, const Observation& obs) {
  (void)obs;
  ++updates_;
  constexpr KnowledgeBase::KeyId kNoKey = KnowledgeBase::kNoKey;
  if (src_ == 0) src_ = kb_.source_id(name());

  // 1. Introspect the watched processes' self-assessed quality.
  for (Watched& w : watched_) {
    AwarenessProcess* proc = w.proc;
    // The first assessment under a name starts its model; a just-started
    // model is not judged.
    const bool inserted = w.model == kNoModel && resolve_model(w);
    learn::Ewma& quality = models_[w.model];
    quality.add(proc->quality());
    if (w.k_quality == kNoKey) {
      kb_.key(w.k_quality, "meta.", proc->name(), ".quality");
    }
    kb_.put_number(w.k_quality, quality.value(), t, 1.0, Scope::Private,
                   src_);
    if (!inserted && updates_ > p_.grace_updates &&
        quality.value() < kQualityFloor) {
      proc->reconfigure();
      ++fired_;
      quality.reset();  // give the reconfigured process a fresh start
      if (w.k_reconfigured == kNoKey) {
        kb_.key(w.k_reconfigured, "meta.", proc->name(), ".reconfigured");
      }
      kb_.put_number(w.k_reconfigured, 1.0, t, 1.0, Scope::Private, src_);
    }
  }

  // 2. Watch the utility stream for drift — evidence that the world (or the
  //    goals) changed under the current models. The smoothed trend is
  //    preferred over raw utility: per-step utility can be near-binary
  //    (e.g. Bernoulli rewards), which swamps a cumulative-sum detector.
  //    After an adaptation the detector rests for a grace period so that
  //    the recovery ramp is not itself flagged as drift.
  if (cooldown_left_ > 0) --cooldown_left_;
  if (k_goal_trend_ == kNoKey) k_goal_trend_ = kb_.find("goal.utility.trend");
  if (k_goal_trend_ == kNoKey && k_goal_utility_ == kNoKey) {
    k_goal_utility_ = kb_.find("goal.utility");
  }
  const KnowledgeBase::KeyId utility =
      k_goal_trend_ != kNoKey ? k_goal_trend_ : k_goal_utility_;
  if (utility != kNoKey && updates_ > p_.grace_updates &&
      cooldown_left_ == 0) {
    if (drift_.add(kb_.number(utility))) {
      cooldown_left_ = p_.grace_updates;
      ++drifts_;
      for (auto& [hook_name, hook] : drift_hooks_) {
        (void)hook_name;
        hook();
        ++fired_;
      }
      // Stale awareness models are part of the problem: refresh them.
      for (Watched& w : watched_) w.proc->reconfigure();
      kb_.put_number(kb_.key(k_drift_detected_, "meta.drift.detected"), 1.0,
                     t, 1.0, Scope::Private, src_);
    }
  }

  kb_.put_number(kb_.key(k_drift_count_, "meta.drift.count"),
                 static_cast<double>(drifts_), t, 1.0, Scope::Private, src_);
  kb_.put_number(kb_.key(k_adaptations_, "meta.adaptations"),
                 static_cast<double>(fired_), t, 1.0, Scope::Private, src_);
}

double MetaSelfAwareness::quality() const {
  if (models_.empty()) return updates_ > 0 ? 1.0 : 0.0;
  double acc = 0.0;
  for (const learn::Ewma& q : models_) acc += q.value();
  return acc / static_cast<double>(models_.size());
}

}  // namespace sa::core
