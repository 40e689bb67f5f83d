#include "gen/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ckpt/state.hpp"
#include "fault/adapters.hpp"

namespace sa::gen {

namespace {

double clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

/// Per-replica seed salt: replica 0 keeps the legacy single-instance
/// stream untouched; replica r perturbs the section constant in bits the
/// section never uses, so growing D/G never reshuffles earlier replicas.
std::uint64_t replica_salt(std::size_t r) {
  return static_cast<std::uint64_t>(r) << 32;
}

}  // namespace

Scenario::Scenario(const ScenarioSpec& spec, std::uint64_t run_seed,
                   Options opts)
    : spec_(spec),
      seed_(spec.scenario_seed(run_seed)),
      opts_(opts),
      runtime_(engine_),
      couple_rng_(ScenarioSpec::section_stream(seed_, "couplings")) {
  if (!spec_.any_substrate()) {
    throw std::invalid_argument("scenario: no substrate section enabled");
  }
  runtime_.set_metrics(opts_.metrics);
  runtime_.set_tracer(opts_.tracer);
  injector_.set_telemetry(opts_.telemetry);

  // Registration order is part of the determinism contract: at coincident
  // instants the engine breaks order ties by registration sequence, so
  // build steps always run in this fixed order — cameras (world steps,
  // injections into the CPN happen inside these), then CPN (traffic
  // before transit), then the cloud, then the edge nodes, then the
  // coupling windows, then the control loops. Each shard builds its own
  // units in that order restricted to them, so every engine sees the same
  // schedule sequence at any shard count; no unit draws from a stream
  // another unit's build advances.
  const std::size_t D = spec_.cameras.enabled ? spec_.cameras.districts : 0;
  const std::size_t G = spec_.cpn.enabled ? spec_.cpn.grids : 0;
  const std::size_t N = spec_.multicore.enabled ? spec_.multicore.nodes : 0;
  pending_.assign(D, 0.0);
  camnets_.resize(D);
  fleets_.resize(D);
  cpnnets_.resize(G);
  traffics_.resize(G);
  gateways_.resize(G);
  backend_nodes_.resize(G);
  if (N != 0) workloads_ = spec_.expand_workloads(seed_);
  platforms_.resize(N);
  managers_.resize(N);
  // Gateway/backend choices come from the coupling stream, not the
  // topology seed, so re-routing knobs never reshuffle the coupling
  // itself (fork never advances the parent).
  const sim::Rng gwbase = couple_rng_.fork("gateways");
  for_each_shard([&](std::size_t s) {
    for (std::size_t d = 0; d < D; ++d) {
      if (district_shard(d) == s) build_district(d);
    }
    for (std::size_t g = 0; g < G; ++g) {
      if (grid_shard(g) == s) build_grid(g, gwbase);
    }
  });
  build_cloud();
  for_each_shard([&](std::size_t s) {
    for (std::size_t i = 0; i < N; ++i) {
      if (edge_shard(i) == s) build_edge_node(i);
    }
  });
  wire_couplings();

  if (opts_.self_aware && spec_.world.exchange_s > 0.0) {
    std::vector<core::SelfAwareAgent*> peers;
    for (auto& m : managers_) peers.push_back(&m->agent());
    if (autoscaler_) peers.push_back(&autoscaler_->agent());
    if (peers.size() >= 2) {
      runtime_.schedule_exchange(peers, spec_.world.exchange_s);
    }
  }

  wire_faults();
}

Scenario::~Scenario() {
  // The ladders watch the managers' agents, so they go first; then every
  // shard frees its own units on the thread that built them.
  degradations_.clear();
  for_each_shard([this](std::size_t s) { free_units(s); });
}

void Scenario::for_each_shard(
    const std::function<void(std::size_t shard)>& job) {
  if (opts_.placement != nullptr) {
    opts_.placement->for_each_shard(job);
  } else {
    job(0);
  }
}

void Scenario::free_units(std::size_t shard) {
  for (std::size_t d = 0; d < fleets_.size(); ++d) {
    if (district_shard(d) != shard) continue;
    fleets_[d].reset();
    camnets_[d].reset();
  }
  for (std::size_t g = 0; g < cpnnets_.size(); ++g) {
    if (grid_shard(g) != shard) continue;
    traffics_[g].reset();
    cpnnets_[g].reset();
    std::vector<std::size_t>().swap(gateways_[g]);
  }
  for (std::size_t i = 0; i < managers_.size(); ++i) {
    if (edge_shard(i) != shard) continue;
    managers_[i].reset();
    platforms_[i].reset();
  }
}

void Scenario::build_district(std::size_t d) {
  svc::NetworkParams np;
  np.objects = spec_.cameras.objects;
  np.speed = spec_.cameras.speed;
  np.seed = sim::mix64(seed_ ^ 0x5CA3'0001ULL ^ replica_salt(d));
  auto camnet =
      std::make_unique<svc::Network>(spec_.expand_cameras(seed_, d), np);
  camnet->set_telemetry(shard_telemetry());

  svc::CameraFleet::Params fp;
  fp.mode = opts_.self_aware ? svc::CameraFleet::Mode::Learning
                             : svc::CameraFleet::Mode::Homogeneous;
  fp.fixed = svc::Strategy::Broadcast;
  fp.epoch_steps = spec_.cameras.epoch_steps;
  fp.seed = sim::mix64(seed_ ^ 0x5CA3'0002ULL ^ replica_salt(d));
  fp.telemetry = shard_telemetry();
  fp.tracer = shard_tracer();
  auto fleet = std::make_unique<svc::CameraFleet>(*camnet, fp);
  sim::Engine* eng = &shard_engine(district_shard(d));
  svc::Network* net = camnet.get();
  fleet->bind(*eng, spec_.world.step_s,
              [this, d, eng, net](const svc::NetworkEpoch& ep) {
                // cameras -> cpn: tracked objects this epoch become
                // backend-bound report packets (injected at the next
                // coupling window; see wire_couplings).
                const double amount =
                    ep.coverage * static_cast<double>(net->objects());
                if (opts_.placement != nullptr &&
                    opts_.placement->post_reports) {
                  // Off-coordinator district: route through the shard
                  // mailbox so the coordinator applies posts in global
                  // event order.
                  opts_.placement->post_reports(d, eng->now(), amount);
                } else {
                  pending_[d] += amount;
                }
              });
  camnets_[d] = std::move(camnet);
  fleets_[d] = std::move(fleet);
}

void Scenario::build_grid(std::size_t g, const sim::Rng& gwbase) {
  cpn::Topology topo = cpn::Topology::grid(
      spec_.cpn.rows, spec_.cpn.cols, spec_.cpn.shortcuts,
      sim::mix64(seed_ ^ 0xC9A0'0001ULL ^ replica_salt(g)));
  cpn::PacketNetwork::Params np;
  np.router = opts_.self_aware ? cpn::PacketNetwork::Router::QRouting
                               : cpn::PacketNetwork::Router::Static;
  np.seed = sim::mix64(seed_ ^ 0xC9A0'0002ULL ^ replica_salt(g));
  cpn::TrafficParams tp;
  tp.flows = spec_.cpn.flows;
  tp.legit_rate = spec_.cpn.rate;
  tp.seed = sim::mix64(seed_ ^ 0xC9A0'0003ULL ^ replica_salt(g));

  auto cpnnet = std::make_unique<cpn::PacketNetwork>(topo, np);
  cpnnet->set_telemetry(shard_telemetry());
  auto traffic =
      std::make_unique<cpn::TrafficGenerator>(cpnnet->topology(), tp);
  // Injections before transit at every tick, as in the synchronous loop.
  sim::Engine& eng = shard_engine(grid_shard(g));
  traffic->bind(eng, *cpnnet, spec_.world.step_s);
  cpnnet->bind(eng, spec_.world.step_s);

  // Grid 0 reads the base fork exactly as a grids=1 section did; later
  // grids fork by index.
  sim::Rng gw = g != 0 ? gwbase.fork(g) : gwbase;
  const std::size_t n = cpnnet->topology().nodes();
  std::vector<std::size_t> gates;
  const auto backend = static_cast<std::size_t>(gw.below(n));
  const std::size_t want = std::min<std::size_t>(3, n - 1);
  while (gates.size() < want) {
    const auto node = static_cast<std::size_t>(gw.below(n));
    if (node == backend) continue;
    if (std::find(gates.begin(), gates.end(), node) != gates.end()) {
      continue;
    }
    gates.push_back(node);
  }
  backend_nodes_[g] = backend;
  gateways_[g] = std::move(gates);
  cpnnets_[g] = std::move(cpnnet);
  traffics_[g] = std::move(traffic);
}

void Scenario::build_cloud() {
  if (!spec_.cloud.enabled) return;
  cloud::Cluster::Params cp;
  cp.nodes = spec_.cloud.nodes;
  cp.epoch_s = spec_.cloud.epoch_s;
  cp.seed = sim::mix64(seed_ ^ 0xC10D'0001ULL);
  cluster_ = std::make_unique<cloud::Cluster>(cp);
  cluster_->set_telemetry(opts_.telemetry);

  cloud::DemandModel::Params dp;
  dp.base = spec_.cloud.demand;
  dp.diurnal_amp = spec_.cloud.amp;
  demand_ = std::make_unique<cloud::DemandModel>(dp);

  cloud::Autoscaler::Params ap;
  ap.variant = opts_.self_aware ? cloud::Autoscaler::Variant::SelfAware
                                : cloud::Autoscaler::Variant::Static;
  ap.initial_nodes = std::max<std::size_t>(1, spec_.cloud.nodes / 3);
  ap.seed = sim::mix64(seed_ ^ 0xC10D'0002ULL);
  ap.telemetry = opts_.telemetry;
  ap.tracer = opts_.tracer;
  autoscaler_ = std::make_unique<cloud::Autoscaler>(*cluster_, *demand_, ap);
  autoscaler_->bind(engine_, 0.0, [this](const cloud::CloudEpoch& ep) {
    cloud_sla_.add(ep.sla);
    cloud_cost_.add(ep.cost);
    // cloud -> edge: when the backend saturates, overflow analytics are
    // offloaded to the edge nodes — their arrival rates scale with the
    // backend's utilisation (piecewise linear, bounded, epoch-granular).
    // In a sharded run this executes on the coordinator while the shards
    // are barrier-paused strictly before (t, control), so the owning
    // shard's manager epoch at the same instant reads the new rates —
    // exactly the monolithic registration-order tie-break.
    const double offload = 0.7 + 0.4 * clamp01(ep.utilisation);
    for (std::size_t i = 0; i < platforms_.size(); ++i) {
      const EdgeWorkload& w = workloads_[i];
      platforms_[i]->set_workload(w.rate * offload, w.work, w.deadline);
    }
  });
}

void Scenario::build_edge_node(std::size_t i) {
  auto platform = std::make_unique<multicore::Platform>(
      multicore::PlatformConfig::big_little(spec_.multicore.big,
                                            spec_.multicore.little),
      sim::mix64(seed_ ^ 0xED6E'0001ULL ^ (i << 8)));
  const EdgeWorkload& w = workloads_[i];
  platform->set_workload(w.rate, w.work, w.deadline);

  multicore::Manager::Params mp;
  mp.variant = opts_.self_aware ? multicore::Manager::Variant::SelfAware
                                : multicore::Manager::Variant::Static;
  mp.epoch_s = spec_.multicore.epoch_s;
  mp.seed = sim::mix64(seed_ ^ 0xED6E'0002ULL ^ (i << 8));
  mp.telemetry = shard_telemetry();
  mp.tracer = shard_tracer();
  auto manager = std::make_unique<multicore::Manager>(*platform, mp);
  manager->bind(shard_engine(edge_shard(i)), spec_.multicore.epoch_s);

  platforms_[i] = std::move(platform);
  managers_[i] = std::move(manager);
}

void Scenario::wire_couplings() {
  // One window event per coupling epoch, at dynamics order so control
  // loops firing at the same instant (order 1) see this window's effects.
  // Registered after the substrate binds, so at coincident ticks the
  // window reads post-step state. Always hosted by the scenario's own
  // engine: in a sharded run this is the coordinator event whose
  // lookahead gap the shards drain up to.
  const double window =
      spec_.cloud.enabled ? spec_.cloud.epoch_s : 10.0 * spec_.world.step_s;
  const bool inject = spec_.cameras.enabled && spec_.cpn.enabled;
  if (cpnnets_.empty() && !inject) return;
  engine_.every_tagged(
      sim::event_tag("sa.gen.couple"), window,
      [this, inject] {
        if (inject) {
          // cameras -> cpn: drain each district's pending report count
          // into packets, round-robin over its grid's gateways
          // (stream-chosen start point; district d feeds grid d mod G).
          const std::size_t G = cpnnets_.size();
          for (std::size_t d = 0; d < pending_.size(); ++d) {
            const std::vector<std::size_t>& gws = gateways_[d % G];
            if (gws.empty()) continue;
            auto n = static_cast<std::size_t>(pending_[d]);
            pending_[d] -= static_cast<double>(n);
            auto at =
                static_cast<std::size_t>(couple_rng_.below(gws.size()));
            for (std::size_t i = 0; i < n; ++i) {
              cpnnets_[d % G]->inject(gws[at], backend_nodes_[d % G],
                                      /*legit=*/true);
              at = (at + 1) % gws.size();
              ++reports_injected_;
            }
          }
        }
        if (!cpnnets_.empty()) {
          // Harvest every grid (ascending), then couple the *combined*
          // delivery rate downstream — the exact CpnStats::delivery_rate
          // expression over the summed counters, so one grid reproduces
          // the single-network trajectory bit-for-bit.
          std::size_t delivered = 0, done = 0;
          for (auto& net : cpnnets_) {
            const cpn::CpnStats stats = net->harvest();
            cpn_delivered_ += stats.delivered;
            cpn_dropped_ += stats.dropped;
            delivered += stats.delivered;
            done += stats.delivered + stats.dropped;
            if (stats.delivered > 0) cpn_latency_.add(stats.p95_latency);
          }
          const double rate =
              done != 0 ? static_cast<double>(delivered) /
                              static_cast<double>(done)
                        : 1.0;
          cpn_delivery_.add(rate);
          // cpn -> cloud: reports that never reach the backend are never
          // analysed — delivery scales the demand the cluster must serve.
          if (demand_) {
            demand_->set_base(spec_.cloud.demand * (0.3 + 0.7 * rate));
          }
        }
        return true;
      },
      core::AgentRuntime::kOrderDynamics);
}

void Scenario::wire_faults() {
  plan_ = spec_.expand_faults(seed_);
  for (auto& p : platforms_) fault::bind_platform(injector_, *p);
  for (auto& net : camnets_) fault::bind_cameras(injector_, *net);
  if (cluster_) fault::bind_cluster(injector_, *cluster_);
  for (auto& net : cpnnets_) fault::bind_packet_network(injector_, *net);
  if (spec_.world.exchange_s > 0.0) {
    fault::bind_exchange(injector_, runtime_);
  }
  if (opts_.self_aware) {
    // The degraded-modes ladder (E13 idiom): each edge manager watches
    // the injector's fault pressure and sheds awareness levels under it.
    // The ladder runs on the engine that owns its manager, so at a
    // coincident (t, control) instant the within-shard sequence order
    // (managers before ladders) matches the monolithic engine's.
    for (std::size_t i = 0; i < managers_.size(); ++i) {
      fault::feed_agent(injector_, managers_[i]->agent());
      core::DegradationPolicy::Params dp;
      dp.fault_active_breach = 2.0;
      degradations_.push_back(std::make_unique<core::DegradationPolicy>(
          managers_[i]->agent(), dp));
      runtime_.schedule_degradation(*degradations_.back(),
                                    spec_.multicore.epoch_s,
                                    &shard_engine(edge_shard(i)));
    }
  }
  injector_.bind(engine_, plan_);
}

void Scenario::run() { run_until(spec_.world.horizon); }

void Scenario::run_until(double t) { engine_.run_until(t); }

std::vector<core::SelfAwareAgent*> Scenario::agents() {
  std::vector<core::SelfAwareAgent*> out;
  for (auto& m : managers_) out.push_back(&m->agent());
  if (opts_.self_aware) {
    for (auto& fleet : fleets_) {
      for (std::size_t c = 0; c < fleet->cameras(); ++c) {
        out.push_back(&fleet->agent(c));
      }
    }
  }
  if (autoscaler_) out.push_back(&autoscaler_->agent());
  return out;
}

void Scenario::register_checkpoint(ckpt::WorldCheckpoint& wc) {
  wc.add("runtime", [this](ckpt::Buffer& b) {
    ckpt::save_runtime(runtime_, b);
    return ckpt::Status{};
  });
  wc.add("injector", [this](ckpt::Buffer& b) {
    ckpt::save_injector(injector_, b);
    return ckpt::Status{};
  });
  // Section names are indexed by registration position, not agent id
  // alone: homogeneous substrates reuse ids (every multicore node's
  // manager is "multicore-mgr"), and section names must be unique.
  std::size_t li = 0;
  for (auto& d : degradations_) {
    core::DegradationPolicy* p = d.get();
    wc.add("ladder." + std::to_string(li++) + "." + p->agent().id(),
           [p](ckpt::Buffer& b) {
             ckpt::save_ladder(*p, b);
             return ckpt::Status{};
           });
  }
  std::size_t ki = 0;
  for (core::SelfAwareAgent* a : agents()) {
    wc.add("kb." + std::to_string(ki++) + "." + a->id(),
           [a](ckpt::Buffer& b) {
             ckpt::save_knowledge(a->knowledge(), b);
             return ckpt::Status{};
           });
  }
  wc.add("engine", [this](ckpt::Buffer& b) {
    return ckpt::save_engine(engine_, b);
  });
}

std::vector<std::pair<std::string, double>> Scenario::summary() const {
  std::vector<std::pair<std::string, double>> out;
  // Headline: mean normalised health across the enabled substrates —
  // exactly the quantity degradation monotonicity is asserted against.
  double goal = 0.0;
  std::size_t parts = 0;
  if (!fleets_.empty()) {
    double c = 0.0;
    for (const auto& f : fleets_) c += f->coverage().mean();
    goal += clamp01(c / static_cast<double>(fleets_.size()));
    ++parts;
  }
  if (!cpnnets_.empty()) {
    goal += clamp01(cpn_delivery_.mean());
    ++parts;
  }
  if (autoscaler_) {
    goal += clamp01(cloud_sla_.mean());
    ++parts;
  }
  if (!managers_.empty()) {
    double u = 0.0;
    for (const auto& m : managers_) u += m->utility().mean();
    goal += clamp01(u / static_cast<double>(managers_.size()));
    ++parts;
  }
  out.emplace_back("goal", parts ? goal / static_cast<double>(parts) : 0.0);

  if (!managers_.empty()) {
    double u = 0.0, p = 0.0;
    for (const auto& m : managers_) {
      u += m->utility().mean();
      p += m->power().mean();
    }
    const auto n = static_cast<double>(managers_.size());
    out.emplace_back("edge_utility", u / n);
    out.emplace_back("edge_power_w", p / n);
  }
  if (!fleets_.empty()) {
    double c = 0.0, msgs = 0.0;
    for (const auto& f : fleets_) {
      c += f->coverage().mean();
      msgs += f->messages().mean();
    }
    const auto n = static_cast<double>(fleets_.size());
    out.emplace_back("coverage", c / n);
    out.emplace_back("camera_messages", msgs / n);
  }
  if (autoscaler_) {
    out.emplace_back("cloud_sla", cloud_sla_.mean());
    out.emplace_back("cloud_cost", cloud_cost_.mean());
  }
  if (!cpnnets_.empty()) {
    out.emplace_back("cpn_delivery", cpn_delivery_.mean());
    out.emplace_back("cpn_p95_ticks", cpn_latency_.mean());
    out.emplace_back("cpn_delivered", static_cast<double>(cpn_delivered_));
    out.emplace_back("reports_injected",
                     static_cast<double>(reports_injected_));
  }
  out.emplace_back("faults_injected",
                   static_cast<double>(injector_.injected()));
  out.emplace_back("faults_restored",
                   static_cast<double>(injector_.restored()));
  out.emplace_back("exchange_items",
                   static_cast<double>(runtime_.items_exchanged()));
  return out;
}

}  // namespace sa::gen
