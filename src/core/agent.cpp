#include "core/agent.hpp"

#include <cmath>
#include <functional>
#include <iomanip>
#include <sstream>

namespace sa::core {

SelfAwareAgent::SelfAwareAgent(std::string id, AgentConfig cfg)
    : id_(std::move(id)),
      cfg_(cfg),
      active_levels_(cfg.levels),
      rng_(sim::mix64(cfg.seed) ^ std::hash<std::string>{}(id_)),
      attention_(cfg.attention_strategy, cfg.attention_budget) {
  if (cfg_.telemetry != nullptr) {
    subject_ = cfg_.telemetry->intern_subject(id_);
  }
  if (cfg_.tracer != nullptr) {
    // Subjects intern on the tracer's own bus, so a tracer can be used
    // with or without sharing the telemetry bus above.
    trace_subject_ = cfg_.tracer->bus().intern_subject(id_);
    n_step_ = cfg_.tracer->intern_name("step");
    n_observe_ = cfg_.tracer->intern_name("observe");
    n_knowledge_ = cfg_.tracer->intern_name("knowledge");
    n_decide_ = cfg_.tracer->intern_name("decide");
    n_act_ = cfg_.tracer->intern_name("act");
    n_outcome_ = cfg_.tracer->intern_name("outcome");
    n_flow_obs_ = cfg_.tracer->intern_name("observation");
    n_flow_stim_ = cfg_.tracer->intern_name("stimulus");
    n_flow_decision_ = cfg_.tracer->intern_name("decision");
    k_signals_ = cfg_.tracer->intern_name("signals");
    k_action_ = cfg_.tracer->intern_name("action_index");
    k_reward_ = cfg_.tracer->intern_name("reward");
  }
  if (cfg_.levels.has(Level::Stimulus)) {
    stimulus_ = std::make_unique<StimulusAwareness>(kb_);
  }
  if (cfg_.levels.has(Level::Interaction)) {
    interaction_ = std::make_unique<InteractionAwareness>(kb_);
  }
  if (cfg_.levels.has(Level::Time)) {
    time_ = std::make_unique<TimeAwareness>(kb_, cfg_.time);
  }
  if (cfg_.levels.has(Level::Meta)) {
    meta_ = std::make_unique<MetaSelfAwareness>(kb_, cfg_.meta);
    if (stimulus_) meta_->watch(*stimulus_);
    if (interaction_) meta_->watch(*interaction_);
    if (time_) meta_->watch(*time_);
    // When the world shifts under the models, learned action values are
    // stale too: the meta level resets the policy alongside the processes.
    meta_->on_drift("policy-reset", [this] {
      if (policy_) policy_->reset();
    });
  }
}

void SelfAwareAgent::add_sensor(const std::string& name,
                                std::function<double()> read) {
  const std::size_t signal = attention_.register_signal(name);
  sensors_.push_back({std::move(read), signal});
}

void SelfAwareAgent::add_action(const std::string& name,
                                std::function<void()> act) {
  action_names_.push_back(name);
  actuators_.push_back(std::move(act));
}

void SelfAwareAgent::set_policy(std::unique_ptr<Policy> policy) {
  policy_ = std::move(policy);
}

void SelfAwareAgent::observe() {
  obs_.clear();
  // With no budget (All) every signal is chosen; otherwise sample only the
  // attended subset.
  attended_.assign(attention_.signals(), 0);
  for (const std::size_t signal : attention_.select(rng_)) {
    attended_[signal] = 1;
  }
  for (const Sensor& sensor : sensors_) {
    if (!attended_[sensor.signal]) continue;
    const double v = sensor.read();
    // A NaN read is a dropped-out sensor (the fault surface): skip it so
    // the key simply stops updating and its knowledge ages out.
    if (std::isnan(v)) {
      ++sensor_gaps_;
      continue;
    }
    obs_.set(sensor.signal, v);
    attention_.feed(sensor.signal, v);
  }
}

void SelfAwareAgent::mirror_readings(double t) {
  if (mirror_src_ == 0) mirror_src_ = kb_.source_id("sensor");
  if (mirror_keys_.size() < attention_.signals()) {
    mirror_keys_.resize(attention_.signals(), KnowledgeBase::kNoKey);
  }
  for (const auto [slot, v] : obs_) {
    kb_.put_number(kb_.key(mirror_keys_[slot], attention_.name(slot)), v, t,
                   1.0, Scope::Public, mirror_src_);
  }
}

void SelfAwareAgent::run_processes(double t) {
  // Order matters and mirrors the levels: raw stimuli first, then models
  // over them, goals over those, and the meta level last so it sees this
  // step's goal.utility.
  // Degradation (set_active_levels) pauses a constructed process without
  // destroying it: skipped here, state intact, resumes on reactivation.
  if (stimulus_ && active_levels_.has(Level::Stimulus)) {
    stimulus_->update(t, obs_);
  }
  if (interaction_ && active_levels_.has(Level::Interaction)) {
    interaction_->update(t, obs_);
  }
  if (time_ && active_levels_.has(Level::Time)) {
    time_->update(t, obs_);
  }
  if (!goal_aware_ && cfg_.levels.has(Level::Goal) &&
      goals_.objectives() > 0) {
    goal_aware_ = std::make_unique<GoalAwareness>(kb_, goals_);
    if (meta_) meta_->watch(*goal_aware_);
  }
  if (goal_aware_ && active_levels_.has(Level::Goal)) {
    goal_aware_->update(t, obs_);
  }
  if (meta_ && active_levels_.has(Level::Meta)) {
    meta_->update(t, obs_);
  }
}

const Decision& SelfAwareAgent::step(double t) {
  ++steps_;
  last_step_t_ = t;
  sim::Tracer* tr = cfg_.tracer;
  auto s_step = tr ? tr->span(t, trace_subject_, n_step_)
                   : sim::Tracer::Span{};

  // Observe: the attention-filtered sensor sweep opens the causal chain.
  sim::TraceId obs_id = 0;
  {
    auto s_obs = tr ? tr->span(t, trace_subject_, n_observe_)
                    : sim::Tracer::Span{};
    observe();
    if (tr) {
      s_obs.arg(k_signals_, static_cast<double>(obs_.size()));
      obs_id = s_obs.id();
      tr->flow(t, sim::FlowPhase::Begin, obs_id, trace_subject_, n_flow_obs_);
    }
  }
  if (cfg_.telemetry != nullptr) {
    detail_.clear();
    for (const auto sample : obs_) {
      if (!detail_.empty()) detail_ += ',';
      detail_ += attention_.name(sample.slot);
    }
    cfg_.telemetry->record(t, sim::TelemetryBus::kObservation, subject_,
                           static_cast<double>(obs_.size()), detail_);
  }
  // Without stimulus awareness (disabled at construction or degraded away)
  // nothing else mirrors raw readings into the KB; do it here so higher
  // levels and policies can still see them.
  if (!stimulus_ || !active_levels_.has(Level::Stimulus)) {
    mirror_readings(t);
  }

  // Knowledge: awareness processes fold the observation into the KB; the
  // observation chain passes through here, and each novel stimulus opens
  // its own chain (its id is stamped onto the StimulusEvent).
  cited_.clear();
  {
    auto s_know = tr ? tr->span(t, trace_subject_, n_knowledge_)
                     : sim::Tracer::Span{};
    run_processes(t);
    if (tr) {
      tr->flow(t, sim::FlowPhase::Step, obs_id, trace_subject_, n_flow_obs_);
      cited_.push_back(obs_id);
      if (stimulus_ && active_levels_.has(Level::Stimulus)) {
        for (StimulusEvent& sev : stimulus_->events()) {
          sev.trace_id = tr->next_id();
          tr->flow(t, sim::FlowPhase::Begin, sev.trace_id, trace_subject_,
                   n_flow_stim_);
          cited_.push_back(sev.trace_id);
        }
      }
    }
  }

  if (!policy_ || action_names_.empty()) {
    decision_ = Decision{};
    decision_.action_index = static_cast<std::size_t>(-1);
    return decision_;
  }
  Decision& d = decision_;
  // Decide: evidence chains terminate here; the decision chain opens.
  {
    auto s_dec = tr ? tr->span(t, trace_subject_, n_decide_)
                    : sim::Tracer::Span{};
    policy_->decide(t, kb_, action_names_.size(), rng_, d);
    d.trace_id = tr ? s_dec.id() : 0;
    if (tr) {
      s_dec.arg(k_action_, static_cast<double>(d.action_index));
      for (const sim::TraceId id : cited_) {
        tr->flow(t, sim::FlowPhase::End, id, trace_subject_,
                 id == obs_id ? n_flow_obs_ : n_flow_stim_);
      }
      tr->flow(t, sim::FlowPhase::Begin, d.trace_id, trace_subject_,
               n_flow_decision_);
    }
  }
  // Act: the chosen actuator fires inside the decision chain.
  if (d.action_index < actuators_.size()) {
    auto s_act = tr ? tr->span(t, trace_subject_, n_act_)
                    : sim::Tracer::Span{};
    actuators_[d.action_index]();
    if (tr) {
      tr->flow(t, sim::FlowPhase::Step, d.trace_id, trace_subject_,
               n_flow_decision_);
    }
  }
  if (cfg_.telemetry != nullptr) {
    detail_.assign(action_name(d.action_index))
        .append(": ")
        .append(d.rationale);
    cfg_.telemetry->record(t, sim::TelemetryBus::kDecision, subject_,
                           static_cast<double>(d.action_index), detail_);
  }
  pending_outcome_ = d.trace_id;
  explain_decision(t);
  return d;
}

void SelfAwareAgent::explain_decision(double t) {
  Explanation* e = explainer_.next();
  if (e == nullptr) return;
  // A recycled log entry keeps its old contents and storage: set every
  // field, by assignment, so its strings and vectors reuse their capacity.
  // Each entry is sized to the largest rationale and evidence list seen
  // so far, so once every entry has been written after the largest, a
  // decision never regrows the entry it recycles.
  const Decision& d = decision_;
  max_evidence_ = std::max(max_evidence_, d.evidence.size());
  e->t = t;
  e->action_index = d.action_index;
  e->rationale.reserve(d.rationale.capacity());
  e->rationale = d.rationale;
  e->scores = d.scores;
  e->evidence.clear();
  e->evidence.reserve(max_evidence_);
  for (const std::string& key : d.evidence) {
    const KnowledgeBase::KeyId id = kb_.find(key);
    if (const auto item = kb_.latest(id)) {
      e->evidence.push_back({id, item->value, item->confidence});
    }
  }
  e->goal_utility = goal_aware_ ? goal_aware_->current_utility() : 0.0;
  e->has_goal = goal_aware_ != nullptr;
  e->trace_id = d.trace_id;
  e->cited = cited_;
  e->from_mode = nullptr;
  e->to_mode = nullptr;
  e->recovered = false;
}

std::string SelfAwareAgent::render(const Explanation& e) const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(3);
  if (e.from_mode != nullptr) {
    // Degradation transition (core::DegradationPolicy), not a decision.
    os << (e.recovered ? "Recovered " : "Degraded ") << e.from_mode << "→"
       << e.to_mode << " at t=" << e.t << ": " << e.rationale;
    if (e.trace_id != 0) os << ", trace #" << e.trace_id;
    return os.str();
  }
  os << "[t=" << e.t << "] " << id_ << " chose '"
     << action_name(e.action_index) << "'";
  if (!e.rationale.empty()) os << " because " << e.rationale;
  os << ".";
  if (!e.scores.empty()) {
    os << " Alternatives considered:";
    for (std::size_t a = 0; a < e.scores.size(); ++a) {
      os << ' ' << action_names_[a] << "(" << e.scores[a] << ")";
    }
    os << ".";
  }
  if (!e.evidence.empty()) {
    os << " Evidence:";
    for (const auto& ev : e.evidence) {
      os << ' ' << kb_.name(ev.key) << "=" << ev.value << " [conf "
         << ev.confidence << "]";
    }
    os << ".";
  }
  if (e.has_goal) {
    os << " Goal utility at decision time: " << e.goal_utility << ".";
  }
  if (e.trace_id != 0) {
    os << " Trace: decision #" << e.trace_id;
    if (!e.cited.empty()) {
      os << " from evidence";
      for (std::size_t i = 0; i < e.cited.size(); ++i) {
        os << (i == 0 ? " #" : ", #") << e.cited[i];
      }
    }
    os << ".";
  }
  return os.str();
}

std::string SelfAwareAgent::why_last() const {
  const std::size_t n = explainer_.size();
  return n == 0 ? std::string{} : render(explainer_.at(n - 1));
}

void SelfAwareAgent::reward(double r) {
  if (policy_) policy_->feedback(r);
  // Outcome: reward settles the pending decision chain. The span sits at
  // the deciding step's time (reward arrives between sim events).
  sim::Tracer* tr = cfg_.tracer;
  if (tr != nullptr && pending_outcome_ != 0) {
    auto s = tr->span(last_step_t_, trace_subject_, n_outcome_);
    s.arg(k_reward_, r);
    tr->flow(last_step_t_, sim::FlowPhase::End, pending_outcome_,
             trace_subject_, n_flow_decision_);
    pending_outcome_ = 0;
  }
}

void SelfAwareAgent::set_active_levels(LevelSet levels) {
  // Clamp to the constructor-time capability set: degradation can only
  // pause processes that exist, never conjure new ones.
  for (const Level l : {Level::Stimulus, Level::Interaction, Level::Time,
                        Level::Goal, Level::Meta}) {
    if (!cfg_.levels.has(l)) levels.unset(l);
  }
  active_levels_ = levels;
}

void SelfAwareAgent::record_interaction(const std::string& peer, bool success,
                                        double value) {
  if (interaction_) interaction_->record_interaction(peer, success, value);
}

std::string SelfAwareAgent::describe() const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(2);
  os << "Agent '" << id_ << "': levels " << cfg_.levels.to_string() << "; "
     << sensors_.size() << " sensor" << (sensors_.size() == 1 ? "" : "s");
  if (!sensors_.empty()) {
    os << " (";
    for (std::size_t i = 0; i < sensors_.size(); ++i) {
      os << (i ? ", " : "") << attention_.name(sensors_[i].signal);
    }
    os << ")";
  }
  os << "; " << action_names_.size() << " action"
     << (action_names_.size() == 1 ? "" : "s") << "; policy "
     << (policy_ ? policy_->name() : "none") << "; goals: "
     << goals_.objectives() << " objective"
     << (goals_.objectives() == 1 ? "" : "s") << ", " << goals_.constraints()
     << " constraint" << (goals_.constraints() == 1 ? "" : "s")
     << "; knowledge: " << kb_.size() << " keys.";

  std::vector<const AwarenessProcess*> procs;
  if (stimulus_) procs.push_back(stimulus_.get());
  if (interaction_) procs.push_back(interaction_.get());
  if (time_) procs.push_back(time_.get());
  if (goal_aware_) procs.push_back(goal_aware_.get());
  if (meta_) procs.push_back(meta_.get());
  if (!procs.empty()) {
    os << " Process quality:";
    for (const auto* p : procs) {
      os << ' ' << p->name() << "=" << p->quality();
    }
    os << ".";
  }
  os << " Decisions taken: " << explainer_.decisions() << " (explained "
     << static_cast<int>(explainer_.coverage() * 100.0) << "%).";
  return os.str();
}

double SelfAwareAgent::current_utility() const {
  return goal_aware_ ? goal_aware_->current_utility() : 0.0;
}

}  // namespace sa::core
