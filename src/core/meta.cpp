#include "core/meta.hpp"

namespace sa::core {

void MetaSelfAwareness::watch(AwarenessProcess& proc) {
  watched_.push_back({&proc});
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
    bool inserted = false;
    if (w.quality == nullptr) {
      auto [it, fresh] = qualities_.try_emplace(proc->name(), kQualityAlpha);
      w.quality = &it->second;
      inserted = fresh;
    }
    learn::Ewma& quality = *w.quality;
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
  if (qualities_.empty()) return updates_ > 0 ? 1.0 : 0.0;
  double acc = 0.0;
  for (const auto& [proc, q] : qualities_) {
    (void)proc;
    acc += q.value();
  }
  return acc / static_cast<double>(qualities_.size());
}

}  // namespace sa::core
