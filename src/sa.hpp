// Umbrella header for the selfaware library.
//
// Pull in everything:      #include "sa.hpp"
// or per layer:            #include "core/agent.hpp"   (the framework)
//                          #include "learn/bandit.hpp" (learning blocks)
//                          #include "sim/engine.hpp"   (simulation kernel)
// or per substrate:        #include "svc/fleet.hpp", "cloud/autoscaler.hpp",
//                          "multicore/manager.hpp", "cpn/network.hpp"
//
// See README.md for the architecture overview and DESIGN.md for the
// paper-reproduction map.
#pragma once

// Simulation kernel.
#include "sim/engine.hpp"
#include "sim/report.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/telemetry.hpp"

// Online learning substrate.
#include "learn/bandit.hpp"
#include "learn/drift.hpp"
#include "learn/estimators.hpp"
#include "learn/forecast.hpp"

// The computational self-awareness framework (the paper's contribution).
#include "core/agent.hpp"
#include "core/attention.hpp"
#include "core/collective.hpp"
#include "core/explain.hpp"
#include "core/goal.hpp"
#include "core/goal_awareness.hpp"
#include "core/interaction.hpp"
#include "core/knowledge.hpp"
#include "core/levels.hpp"
#include "core/meta.hpp"
#include "core/pareto.hpp"
#include "core/policy.hpp"
#include "core/process.hpp"
#include "core/runtime.hpp"
#include "core/sharing.hpp"
#include "core/stimulus.hpp"
#include "core/time_awareness.hpp"

// Case-study substrates.
#include "cloud/autoscaler.hpp"
#include "cloud/cluster.hpp"
#include "cpn/network.hpp"
#include "cpn/traffic.hpp"
#include "multicore/manager.hpp"
#include "multicore/platform.hpp"
#include "multicore/workload.hpp"
#include "svc/fleet.hpp"
#include "svc/network.hpp"
