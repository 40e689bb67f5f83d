// JSONL export of a sim::MetricsRegistry (it lives in sa::exp because the
// deterministic Json writer is here).
//
// Layout:
//   line 1    {"schema":1,"kind":"metrics","names":[...],"kinds":[...]}
//   line 2..  {"t":<snapshot time>,"v":[<one scalar per metric>]}
//   last line {"summary":{<name>:{"kind":...,"value":...,...}}} — counters
//             and gauges report their value; timers report
//             count/mean/min/max/stddev of their observations.
//
// Timers hold wall-clock measurements, so metric *values* are not
// reproducible run-to-run — only the file structure is. Reproducible
// observability lives in the trace export (exp/trace_json.hpp).
#pragma once

#include <iosfwd>

#include "sim/metrics.hpp"

namespace sa::exp {

void write_metrics_jsonl(std::ostream& os,
                         const sim::MetricsRegistry& registry);

}  // namespace sa::exp
