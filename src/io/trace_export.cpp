#include "io/trace_export.h"

namespace subscale::io {

void write_chrome_trace(JsonWriter& w,
                        const obs::ProfileSnapshot& snapshot) {
  w.begin_object();
  w.key("displayTimeUnit");
  w.value("ms");
  w.key("traceEvents");
  w.begin_array();
  for (const obs::ProfileSpan& span : snapshot.spans) {
    w.begin_object();
    w.key("name");
    w.value(span.label);
    w.key("cat");
    w.value("span");
    w.key("ph");
    w.value("X");
    // Trace-event timestamps are microseconds; fractional µs keeps the
    // full ns resolution of the recorder.
    w.key("ts");
    w.value(static_cast<double>(span.t0_ns) * 1e-3);
    w.key("dur");
    w.value(static_cast<double>(span.t1_ns - span.t0_ns) * 1e-3);
    w.key("pid");
    w.value(std::uint64_t{1});
    w.key("tid");
    w.value(static_cast<std::uint64_t>(span.tid));
    w.key("args");
    w.begin_object();
    w.key("depth");
    w.value(static_cast<std::uint64_t>(span.depth));
    w.key("seq");
    w.value(span.seq);
    w.key("parent");
    w.value(span.parent);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.key("droppedSpans");
  w.value(snapshot.dropped);
  w.end_object();
}

void write_convergence_document(
    JsonWriter& w, const std::vector<obs::SolveTrajectory>& solves) {
  w.begin_object();
  w.key("solves");
  w.begin_array();
  for (const obs::SolveTrajectory& solve : solves) {
    w.begin_object();
    w.key("vg");
    w.value(solve.vg);
    w.key("vd");
    w.value(solve.vd);
    w.key("converged");
    w.value(solve.converged);
    w.key("iteration");
    w.begin_array();
    for (const auto& s : solve.samples) {
      w.value(static_cast<std::uint64_t>(s.iteration));
    }
    w.end_array();
    w.key("poisson_update");
    w.begin_array();
    for (const auto& s : solve.samples) w.value(s.poisson_update);
    w.end_array();
    w.key("poisson_iterations");
    w.begin_array();
    for (const auto& s : solve.samples) {
      w.value(static_cast<std::uint64_t>(s.poisson_iterations));
    }
    w.end_array();
    w.key("continuity_max_density");
    w.begin_array();
    for (const auto& s : solve.samples) w.value(s.continuity_max_density);
    w.end_array();
    w.key("psi_update");
    w.begin_array();
    for (const auto& s : solve.samples) w.value(s.psi_update);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace subscale::io
