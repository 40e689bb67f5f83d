#include "multicore/platform.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace sa::multicore {

PlatformConfig PlatformConfig::big_little(std::size_t n_big,
                                          std::size_t n_little) {
  PlatformConfig cfg;
  for (std::size_t i = 0; i < n_big; ++i) {
    cfg.cores.push_back({"big" + std::to_string(i), true, /*ipc=*/2.0,
                         /*static_w=*/0.5, /*dyn_coeff=*/1.2});
  }
  for (std::size_t i = 0; i < n_little; ++i) {
    cfg.cores.push_back({"little" + std::to_string(i), false, /*ipc=*/0.8,
                         /*static_w=*/0.15, /*dyn_coeff=*/0.25});
  }
  return cfg;
}

Platform::Platform(PlatformConfig cfg, std::uint64_t seed)
    : cfg_(std::move(cfg)),
      specs_(cfg_.cores),
      level_(specs_.size(), kFreqs.size() / 2),
      failed_(specs_.size(), false),
      queue_(specs_.size()),
      rng_(seed) {
  if (cfg_.thermal) {
    temp_.assign(specs_.size(), kAmbientC);
    throttled_.assign(specs_.size(), false);
  }
  queue_tw_.set(0.0, 0.0);
}

void Platform::set_freq_level(std::size_t core, std::size_t level) {
  level_[core] = std::min(level, kFreqs.size() - 1);
}

void Platform::set_all_freq(std::size_t level) {
  for (std::size_t c = 0; c < level_.size(); ++c) set_freq_level(c, level);
}

void Platform::set_workload(double rate, double mean_work, double deadline) {
  rate_ = rate;
  mean_work_ = mean_work;
  deadline_ = deadline;
}

double Platform::speed(std::size_t core) const {
  if (failed_[core]) return 0.0;
  // A throttled core is hardware-clamped to the minimum frequency
  // regardless of what the manager asked for; a fault-injected cap bounds
  // the effective level below whatever the manager requested.
  const double f =
      throttled(core) ? kFreqs.front()
                      : kFreqs[std::min(level_[core], freq_cap_)];
  return specs_[core].ipc * f;
}

void Platform::fail_core(std::size_t core) {
  if (failed_[core]) return;
  failed_[core] = true;
  // Re-home the dead core's queued tasks; place() now skips it. If every
  // core is down the orphans stall on core 0 until a restore.
  orphans_.clear();
  queue_[core].drain_into(orphans_);
  for (const auto& t : orphans_) queue_[place()].push_back(t);
}

std::size_t Platform::place() const {
  // Candidate set by mapping; Balanced considers everyone.
  auto eligible = [&](std::size_t c) {
    switch (mapping_) {
      case Mapping::Balanced: return true;
      case Mapping::PackBig: return specs_[c].big;
      case Mapping::PackLittle: return !specs_[c].big;
    }
    return true;
  };
  // Least expected finish time, eta = backlog()/speed, among eligible
  // cores; the first core in index order wins a tie. Pass 1 falls back to
  // all cores if the preferred class is absent (or all of it failed).
  //
  // The decision is made from each queue's O(1) bounds lo ≤ backlog() ≤
  // hi (a floating-point filter) and is exactly the full scan's:
  //  - Let min_hi be the smallest hi/speed. A core whose lo/speed exceeds
  //    min_hi has an eta strictly above the eta of the core attaining
  //    min_hi: division by a positive speed is monotone under
  //    round-to-nearest, so fl(backlog/speed) ≥ fl(lo/speed) > min_hi ≥
  //    that core's eta. The full scan can never pick it.
  //  - The full scan's winner therefore has lo/speed ≤ min_hi: it is a
  //    candidate. If it is the only one, it wins outright (min_hi finite
  //    means its eta beats the scan's initial +inf).
  //  - Otherwise the same strict-< index-order scan over the candidates,
  //    on exact backlogs, finds it: no excluded core could have displaced
  //    it, and every earlier-index candidate has a strictly larger eta.
  // A core of zero speed gives eta = inf or NaN and is never picked by
  // either path, as before. Exact re-sums thus run only on near-ties.
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  const double inf = std::numeric_limits<double>::infinity();
  for (int pass = 0; pass < 2; ++pass) {
    auto considered = [&](std::size_t c) {
      return !failed_[c] && (pass == 1 || eligible(c));
    };
    double lo = 0.0, hi = 0.0;
    double min_hi = inf;
    for (std::size_t c = 0; c < specs_.size(); ++c) {
      if (!considered(c)) continue;
      queue_[c].backlog_bounds(lo, hi);
      const double eta_hi = hi / speed(c);
      if (eta_hi < min_hi) min_hi = eta_hi;
    }
    auto candidate = [&](std::size_t c) {
      if (!considered(c)) return false;
      queue_[c].backlog_bounds(lo, hi);
      return lo / speed(c) <= min_hi;
    };
    std::size_t only = kNone, candidates = 0;
    for (std::size_t c = 0; c < specs_.size() && candidates < 2; ++c) {
      if (candidate(c)) {
        only = c;
        ++candidates;
      }
    }
    if (candidates == 1 && min_hi < inf) return only;
    std::size_t best = kNone;
    double best_eta = inf;
    for (std::size_t c = 0; c < specs_.size(); ++c) {
      if (!candidate(c)) continue;
      const double eta = queue_[c].backlog() / speed(c);
      if (eta < best_eta) {
        best_eta = eta;
        best = c;
      }
    }
    if (best != kNone) return best;
  }
  // Every core failed: park on core 0 until a restore revives the chip.
  return 0;
}

void Platform::admit(Task task) {
  ++arrived_;
  offered_work_ += task.total;
  queue_[place()].push_back(task);
}

void Platform::step() {
  const double dt = kTick;

  // 1. Arrivals: Poisson(rate·dt) per tick.
  const int arrivals = rate_ > 0.0 ? rng_.poisson(rate_ * dt) : 0;
  for (int i = 0; i < arrivals; ++i) {
    Task t;
    t.total = t.remaining = rng_.exponential(mean_work_);
    t.arrived = now_;
    t.deadline = deadline_;
    admit(t);
  }

  // 2. Processing: each core drains its queue head(s) for this tick.
  for (std::size_t c = 0; c < specs_.size(); ++c) {
    if (failed_[c]) continue;  // dead silicon: no work, no power, no heat
    double budget = speed(c) * dt;  // giga-ops available this tick
    const double full_budget = budget;
    while (budget > 0.0 && !queue_[c].empty()) {
      const Task& t = queue_[c].front();
      const double done = std::min(budget, t.remaining);
      budget -= done;
      if (queue_[c].consume_front(done) <= 1e-12) {
        const double sojourn = now_ + dt - t.arrived;
        latency_.add(sojourn);
        latency_hist_.add(sojourn);
        if (t.deadline > 0.0 && sojourn > t.deadline) ++missed_;
        ++completed_;
        queue_[c].pop_front();
      }
    }
    const double busy_frac =
        full_budget > 0.0 ? (full_budget - budget) / full_budget : 0.0;
    busy_time_ += busy_frac * dt;
    const double f =
        throttled(c) ? kFreqs.front()
                     : kFreqs[std::min(level_[c], freq_cap_)];
    // Leakage scales with f^2 (supply voltage tracks frequency under DVFS),
    // dynamic power with f^3 x activity.
    const double power = specs_[c].static_w * f * f +
                         specs_[c].dyn_coeff * f * f * f * busy_frac;
    energy_ += power * dt;

    if (cfg_.thermal) {
      temp_[c] += dt * (kHeatPerW * power -
                        kCoolRate * (temp_[c] - kAmbientC));
      max_temp_epoch_ = std::max(max_temp_epoch_, temp_[c]);
      if (!throttled_[c] && temp_[c] >= kThrottleC) {
        throttled_[c] = true;
        if (telemetry_) {
          telemetry_->record(now_ + dt, sim::TelemetryBus::kFailure,
                             subject_, temp_[c], specs_[c].name);
        }
      } else if (throttled_[c] && temp_[c] <= kRecoverC) {
        throttled_[c] = false;
      }
      if (throttled_[c]) throttle_time_ += dt;
    }
  }

  now_ += dt;
  queue_tw_.set(now_, static_cast<double>(queued()));
}

void Platform::run_for(double secs) {
  const auto ticks = static_cast<std::size_t>(std::ceil(secs / kTick));
  for (std::size_t i = 0; i < ticks; ++i) step();
}

void Platform::set_telemetry(sim::TelemetryBus* bus) {
  telemetry_ = bus;
  if (telemetry_) subject_ = telemetry_->intern_subject("multicore.platform");
}

std::size_t Platform::queued() const {
  std::size_t n = 0;
  for (const auto& q : queue_) n += q.size();
  return n;
}

EpochStats Platform::harvest() {
  EpochStats s;
  s.duration = now_ - epoch_start_;
  s.completed = completed_;
  s.arrived = arrived_;
  if (s.duration > 0.0) {
    s.throughput = static_cast<double>(completed_) / s.duration;
    s.mean_power = energy_ / s.duration;
    s.utilisation =
        busy_time_ / (s.duration * static_cast<double>(specs_.size()));
    s.offered_gops = offered_work_ / s.duration;
  }
  s.mean_latency = latency_.mean();
  s.p95_latency = latency_hist_.quantile(0.95);
  s.energy = energy_;
  s.miss_rate = completed_
                    ? static_cast<double>(missed_) /
                          static_cast<double>(completed_)
                    : 0.0;
  s.mean_queue = queue_tw_.mean(now_);
  s.max_temp_c = cfg_.thermal ? max_temp_epoch_ : kAmbientC;
  if (cfg_.thermal && s.duration > 0.0) {
    s.throttle_frac = throttle_time_ /
                      (s.duration * static_cast<double>(specs_.size()));
  }

  epoch_start_ = now_;
  completed_ = arrived_ = missed_ = 0;
  offered_work_ = 0.0;
  latency_.reset();
  latency_hist_ = sim::Histogram{0.0, 5.0, 200};
  energy_ = 0.0;
  busy_time_ = 0.0;
  max_temp_epoch_ = cfg_.thermal && !temp_.empty()
                        ? *std::max_element(temp_.begin(), temp_.end())
                        : 0.0;
  throttle_time_ = 0.0;
  queue_tw_ = sim::TimeWeighted{};
  queue_tw_.set(now_, static_cast<double>(queued()));
  return s;
}

}  // namespace sa::multicore
