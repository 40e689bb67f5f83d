#include "fault/adapters.hpp"

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "cloud/cluster.hpp"
#include "cpn/network.hpp"
#include "multicore/platform.hpp"
#include "svc/network.hpp"

namespace sa::fault {

namespace {

/// Per-unit overlapping-fault refcount (shared between begin/end lambdas).
using Depth = std::shared_ptr<std::vector<std::size_t>>;

Depth make_depth(std::size_t units) {
  return std::make_shared<std::vector<std::size_t>>(units, 0);
}

}  // namespace

void bind_platform(Injector& inj, multicore::Platform& platform) {
  {
    auto depth = make_depth(platform.cores());
    inj.add_surface(
        {FaultKind::CoreFail, "multicore.core", platform.cores(),
         [&platform, depth](std::size_t core, double) {
           if (++(*depth)[core] == 1) platform.fail_core(core);
         },
         [&platform, depth](std::size_t core, double) {
           if (--(*depth)[core] == 0) platform.restore_core(core);
         }});
  }
  {
    // Overlapping caps: the tightest active level governs; when it ends
    // the chip relaxes to the loosest still-active cap, and uncaps only
    // when the last one ends.
    auto caps = std::make_shared<std::multiset<std::size_t>>();
    inj.add_surface(
        {FaultKind::FreqCap, "multicore.chip", 1,
         [&platform, caps](std::size_t, double magnitude) {
           caps->insert(static_cast<std::size_t>(std::max(0.0, magnitude)));
           platform.set_freq_cap(*caps->begin());
         },
         [&platform, caps](std::size_t, double magnitude) {
           const auto it =
               caps->find(static_cast<std::size_t>(std::max(0.0, magnitude)));
           if (it != caps->end()) caps->erase(it);
           platform.set_freq_cap(caps->empty() ? static_cast<std::size_t>(-1)
                                               : *caps->begin());
         }});
  }
}

void bind_cameras(Injector& inj, svc::Network& net) {
  {
    auto depth = make_depth(net.cameras());
    inj.add_surface(
        {FaultKind::NodeCrash, "svc.camera", net.cameras(),
         [&net, depth](std::size_t cam, double) {
           if (++(*depth)[cam] == 1) net.fail_camera(cam);
         },
         [&net, depth](std::size_t cam, double) {
           if (--(*depth)[cam] == 0) net.restore_camera(cam);
         }});
  }
  {
    // Dropout and blur share the visibility knob: dropout pins it to 0;
    // when only blurs remain the latest blur factor applies.
    auto drop = make_depth(net.cameras());
    auto blur = make_depth(net.cameras());
    auto factor = std::make_shared<std::vector<double>>(net.cameras(), 1.0);
    auto apply = [&net, drop, blur, factor](std::size_t cam) {
      if ((*drop)[cam] > 0) {
        net.set_sensor_blur(cam, 0.0);
      } else if ((*blur)[cam] > 0) {
        net.set_sensor_blur(cam, (*factor)[cam]);
      } else {
        net.set_sensor_blur(cam, 1.0);
      }
    };
    inj.add_surface({FaultKind::SensorDropout, "svc.sensor", net.cameras(),
                     [drop, apply](std::size_t cam, double) {
                       ++(*drop)[cam];
                       apply(cam);
                     },
                     [drop, apply](std::size_t cam, double) {
                       --(*drop)[cam];
                       apply(cam);
                     }});
    inj.add_surface({FaultKind::SensorBlur, "svc.sensor", net.cameras(),
                     [blur, factor, apply](std::size_t cam, double magnitude) {
                       ++(*blur)[cam];
                       (*factor)[cam] =
                           std::clamp(1.0 - magnitude, 0.0, 1.0);
                       apply(cam);
                     },
                     [blur, apply](std::size_t cam, double) {
                       --(*blur)[cam];
                       apply(cam);
                     }});
  }
}

void bind_cluster(Injector& inj, cloud::Cluster& cluster) {
  {
    auto depth = make_depth(cluster.size());
    inj.add_surface(
        {FaultKind::VmPreempt, "cloud.vm", cluster.size(),
         [&cluster, depth](std::size_t node, double) {
           if (++(*depth)[node] == 1) cluster.set_preempted(node, true);
         },
         [&cluster, depth](std::size_t node, double) {
           if (--(*depth)[node] == 0) cluster.set_preempted(node, false);
         }});
  }
  {
    // Overlapping spikes: the strongest active magnitude governs the
    // capacity factor (mirroring the freq-cap tightest-level rule); a
    // milder concurrent spike neither relaxes nor deepens it, and the
    // factor relaxes stepwise as spikes end. Magnitudes <= 1 stay a no-op.
    auto mags = std::make_shared<std::multiset<double>>();
    inj.add_surface(
        {FaultKind::LatencySpike, "cloud.cluster", 1,
         [&cluster, mags](std::size_t, double magnitude) {
           mags->insert(magnitude);
           cluster.set_capacity_factor(1.0 / std::max(1.0, *mags->rbegin()));
         },
         [&cluster, mags](std::size_t, double magnitude) {
           const auto it = mags->find(magnitude);
           if (it != mags->end()) mags->erase(it);
           cluster.set_capacity_factor(
               mags->empty() ? 1.0 : 1.0 / std::max(1.0, *mags->rbegin()));
         }});
  }
}

void bind_packet_network(Injector& inj, cpn::PacketNetwork& net) {
  const auto& topo = net.topology();
  const std::size_t links = topo.links().size();
  // LinkLoss and Partition share these refcounts: a link stays dead while
  // *any* fault (direct loss or a partition of either endpoint) holds it.
  auto link_depth = make_depth(links);
  auto hold = [&net, link_depth](std::size_t l) {
    if (++(*link_depth)[l] == 1) net.fail_link(l);
  };
  auto release = [&net, link_depth](std::size_t l) {
    if (--(*link_depth)[l] == 0) net.restore_link(l);
  };
  inj.add_surface({FaultKind::LinkLoss, "cpn.link", links,
                   [hold](std::size_t l, double) { hold(l); },
                   [release](std::size_t l, double) { release(l); }});
  // Partition unit = node: all its incident links go down together.
  auto incident = std::make_shared<std::vector<std::vector<std::size_t>>>(
      topo.nodes());
  for (std::size_t l = 0; l < links; ++l) {
    (*incident)[topo.links()[l].a].push_back(l);
    (*incident)[topo.links()[l].b].push_back(l);
  }
  inj.add_surface({FaultKind::Partition, "cpn.node", topo.nodes(),
                   [incident, hold](std::size_t node, double) {
                     for (std::size_t l : (*incident)[node]) hold(l);
                   },
                   [incident, release](std::size_t node, double) {
                     for (std::size_t l : (*incident)[node]) release(l);
                   }});
  {
    auto depth = make_depth(links);
    inj.add_surface(
        {FaultKind::LinkReorder, "cpn.link", links,
         [&net, depth](std::size_t l, double magnitude) {
           ++(*depth)[l];
           net.set_link_slowdown(l, magnitude);
         },
         [&net, depth](std::size_t l, double) {
           if (--(*depth)[l] == 0) net.set_link_slowdown(l, 1.0);
         }});
  }
}

void bind_exchange(Injector& inj, core::AgentRuntime& rt) {
  auto depth = make_depth(1);
  inj.add_surface({FaultKind::ExchangeDrop, "core.exchange", 1,
                   [&rt, depth](std::size_t, double) {
                     ++(*depth)[0];
                     rt.set_exchange_blocked(true);
                   },
                   [&rt, depth](std::size_t, double) {
                     if (--(*depth)[0] == 0) rt.set_exchange_blocked(false);
                   }});
}

void feed_agent(Injector& inj, core::SelfAwareAgent& agent) {
  // Keys and source resolve on the first event that writes them, not
  // here: a key interned before its first write would add an empty
  // history to every checkpoint image.
  using KB = core::KnowledgeBase;
  inj.subscribe([&agent, k_active = KB::kNoKey, k_count = KB::kNoKey,
                 fault = KB::SourceId{0}](const Injector::Record& rec,
                                          std::size_t active) mutable {
    auto& kb = agent.knowledge();
    if (fault == 0) fault = kb.source_id("fault");
    kb.put_number(kb.key(k_active, "fault.active"),
                  static_cast<double>(active), rec.t, 1.0,
                  core::Scope::Private, fault);
    if (rec.begin) {
      const auto count = kb.key(k_count, "fault.count");
      kb.put_number(count, kb.number(count) + 1.0, rec.t, 1.0,
                    core::Scope::Private, fault);
    }
  });
}

}  // namespace sa::fault
