#include "core/runtime.hpp"

#include <chrono>

#include "core/degrade.hpp"
#include "core/sharing.hpp"

namespace sa::core {

namespace {
/// Wall-clock duration of `fn` in milliseconds — only measured when a
/// metrics registry asked for it; never feeds back into simulation state.
template <typename Fn>
double timed_ms(Fn&& fn) {
  const auto wall0 = std::chrono::steady_clock::now();
  fn();
  const std::chrono::duration<double, std::milli> wall =
      std::chrono::steady_clock::now() - wall0;
  return wall.count();
}
}  // namespace

AgentRuntime::StreamInstruments AgentRuntime::instrument(
    const std::string& name, const char* span_name) {
  StreamInstruments si;
  if (metrics_ != nullptr) {
    si.count = metrics_->counter("profile." + name + ".count");
    si.ms = metrics_->timer("profile." + name + ".ms");
  }
  if (tracer_ != nullptr) {
    si.subject = tracer_->bus().intern_subject("runtime." + name);
    si.name = tracer_->intern_name(span_name);
  }
  return si;
}

void AgentRuntime::schedule(SelfAwareAgent& agent, double period,
                            std::function<double()> reward_after) {
  ++scheduled_;
  const StreamInstruments si = instrument(agent.id(), "oda");
  engine_.every_tagged(
      sim::event_tag("sa.rt.oda." + agent.id(), scheduled_), period,
      [this, &agent, reward_after = std::move(reward_after), si] {
        const double t = engine_.now();
        auto span = tracer_ != nullptr ? tracer_->span(t, si.subject, si.name)
                                       : sim::Tracer::Span{};
        auto body = [&] {
          agent.step(t);
          ++steps_;
          if (reward_after) agent.reward(reward_after());
        };
        if (metrics_ != nullptr) {
          const double ms = timed_ms(body);
          metrics_->add(si.count);
          metrics_->observe(si.ms, ms);
        } else {
          body();
        }
        return true;
      },
      kOrderControl);
}

namespace {
/// Exchange-retry checkpoint payload: the attempt number, 8 bytes LE, so
/// the attestation covers how far a pending retry has backed off.
std::string encode_attempt(std::size_t attempt) {
  std::string out(8, '\0');
  for (int i = 0; i < 8; ++i)
    out[static_cast<std::size_t>(i)] =
        static_cast<char>((static_cast<std::uint64_t>(attempt) >> (8 * i)) &
                          0xff);
  return out;
}
}  // namespace

void AgentRuntime::schedule_exchange(std::vector<SelfAwareAgent*> agents,
                                     double period) {
  ++scheduled_;
  const std::size_t round = exchange_rounds_.size();
  ExchangeRound r;
  r.agents = std::move(agents);
  r.si = instrument("exchange", "exchange");
  r.period = period;
  // Retry parameters are captured per registration so later calls to
  // set_exchange_retry don't rewrite in-flight rounds.
  r.retries = exchange_retries_;
  r.backoff0 = exchange_backoff0_ > 0.0 ? exchange_backoff0_ : period / 8.0;
  exchange_rounds_.push_back(std::move(r));
  engine_.every_tagged(
      sim::event_tag("sa.rt.exchange", round), period,
      [this, round] {
        run_exchange(round, 0);
        return true;
      },
      kOrderExchange);
}

void AgentRuntime::schedule_exchange_retry(std::size_t round,
                                           std::size_t attempt) {
  const ExchangeRound& r = exchange_rounds_[round];
  const double delay =
      r.backoff0 * static_cast<double>(1ull << (attempt - 1));
  engine_.in_tagged(
      sim::event_tag("sa.rt.exchange.retry", round), delay,
      [this, round, attempt] { run_exchange(round, attempt); },
      kOrderExchange, encode_attempt(attempt));
}

void AgentRuntime::run_exchange(std::size_t round, std::size_t attempt) {
  const ExchangeRound& r = exchange_rounds_[round];
  if (exchange_blocked_) {
    // Dropped exchange: a fault surface, not an abort. Defer and retry
    // with exponential backoff; give up only after the budget is spent.
    ++exchange_drops_;
    if (attempt < r.retries) {
      ++exchange_retry_count_;
      schedule_exchange_retry(round, attempt + 1);
      return;
    }
    ++exchange_timeouts_;
    // The failed round is knowledge too: every pair learns its peer was
    // unreachable, feeding interaction awareness's reliability models.
    for (SelfAwareAgent* from : r.agents) {
      for (SelfAwareAgent* into : r.agents) {
        if (from == into) continue;
        into->record_interaction(from->id(), false);
      }
    }
    return;
  }
  auto span = tracer_ != nullptr
                  ? tracer_->span(engine_.now(), r.si.subject, r.si.name)
                  : sim::Tracer::Span{};
  auto body = [&] {
    for (SelfAwareAgent* from : r.agents) {
      for (SelfAwareAgent* into : r.agents) {
        if (from == into) continue;
        exchanged_ += KnowledgeExchange::import(from->knowledge(), from->id(),
                                                into->knowledge());
      }
    }
  };
  if (metrics_ != nullptr) {
    const double ms = timed_ms(body);
    metrics_->add(r.si.count);
    metrics_->observe(r.si.ms, ms);
  } else {
    body();
  }
}

void AgentRuntime::schedule_degradation(DegradationPolicy& policy,
                                        double period, sim::Engine* on) {
  ++scheduled_;
  sim::Engine& engine = on != nullptr ? *on : engine_;
  const StreamInstruments si =
      instrument("degrade." + policy.agent().id(), "degrade");
  engine.every_tagged(
      sim::event_tag("sa.rt.degrade." + policy.agent().id(), scheduled_),
      period,
      [this, &policy, si, &engine] {
        const double t = engine.now();
        auto span = tracer_ != nullptr ? tracer_->span(t, si.subject, si.name)
                                       : sim::Tracer::Span{};
        auto body = [&] { policy.update(t, span.id()); };
        if (metrics_ != nullptr) {
          const double ms = timed_ms(body);
          metrics_->add(si.count);
          metrics_->observe(si.ms, ms);
        } else {
          body();
        }
        return true;
      },
      kOrderControl);
}

}  // namespace sa::core
