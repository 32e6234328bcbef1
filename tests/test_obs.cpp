#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "compact/device_spec.h"
#include "core/scaling_study.h"
#include "exec/parallel.h"
#include "exec/run_context.h"
#include "obs/convergence.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/profiler.h"
#include "obs/timer.h"
#include "tcad/device_sim.h"

namespace so = subscale::obs;
namespace se = subscale::exec;
namespace st = subscale::tcad;
namespace sco = subscale::core;

namespace {

/// Restore the process-default registry on scope exit so no test leaks
/// an installed registry into its neighbours.
struct DefaultRegistryGuard {
  so::MetricsRegistry* previous = so::default_registry();
  ~DefaultRegistryGuard() { so::set_default_registry(previous); }
};

/// Same guard for the process-default span profiler.
struct DefaultProfilerGuard {
  so::SpanProfiler* previous = so::default_profiler();
  ~DefaultProfilerGuard() { so::set_default_profiler(previous); }
};

subscale::compact::DeviceSpec nfet_90() {
  return subscale::compact::make_spec_from_table(
      subscale::doping::Polarity::kNfet, 65, 2.10, 1.52e18, 3.63e18, 1.2,
      1.0);
}

}  // namespace

// ---- instruments ----------------------------------------------------------

TEST(Metrics, CounterAccumulatesAndResets) {
  so::MetricsRegistry reg;
  so::Counter& c = reg.counter("test.counter");
  EXPECT_EQ(c.value(), 0u);
  c.add(3);
  c.add(4);
  EXPECT_EQ(c.value(), 7u);
  // Same name resolves to the same instrument.
  EXPECT_EQ(&reg.counter("test.counter"), &c);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, GaugeSetAndSetMax) {
  so::MetricsRegistry reg;
  so::Gauge& g = reg.gauge("test.gauge");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.set_max(1.0);  // lower: ignored
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.set_max(9.0);
  EXPECT_DOUBLE_EQ(g.value(), 9.0);
}

TEST(Metrics, HistogramBucketsAndOverflow) {
  so::MetricsRegistry reg;
  so::Histogram& h = reg.histogram("test.iters", so::buckets::kIterations);
  h.record(1.0);    // first bucket (<= 1)
  h.record(1.0);
  h.record(5000.0);  // beyond the last bound: overflow bucket
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 5002.0);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(so::buckets::kIterations.count), 1u);  // overflow
}

TEST(Metrics, PercentileOfEmptyHistogramIsZero) {
  so::MetricsRegistry reg;
  reg.histogram("test.empty", so::buckets::kIterations);
  const so::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.histograms[0].percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(snap.histograms[0].percentile(99.0), 0.0);
}

TEST(Metrics, PercentileInterpolatesWithinSingleBucket) {
  so::MetricsRegistry reg;
  so::Histogram& h = reg.histogram("test.single", so::buckets::kIterations);
  for (int i = 0; i < 4; ++i) h.record(1.0);  // all in bucket (0, 1]
  const so::MetricsSnapshot snap = reg.snapshot();
  const auto& hv = snap.histograms[0];
  // Linear interpolation from the first bucket's lower edge (0): rank
  // p of 4 samples lands p% of the way through the (0, 1] bucket.
  EXPECT_DOUBLE_EQ(hv.percentile(25.0), 0.25);
  EXPECT_DOUBLE_EQ(hv.percentile(50.0), 0.5);
  EXPECT_DOUBLE_EQ(hv.percentile(100.0), 1.0);
  // Out-of-range p clamps instead of extrapolating.
  EXPECT_DOUBLE_EQ(hv.percentile(150.0), 1.0);
  EXPECT_GE(hv.percentile(-10.0), 0.0);
}

TEST(Metrics, PercentileInterpolatesAcrossBuckets) {
  so::MetricsRegistry reg;
  so::Histogram& h = reg.histogram("test.multi", so::buckets::kIterations);
  h.record(1.0);  // bucket (0, 1]
  h.record(2.0);  // bucket (1, 2]
  h.record(3.0);  // bucket (2, 3]
  h.record(3.0);
  const so::MetricsSnapshot snap = reg.snapshot();
  const auto& hv = snap.histograms[0];
  // target = 2 of 4 lands exactly at the top of the (1, 2] bucket.
  EXPECT_DOUBLE_EQ(hv.percentile(50.0), 2.0);
  // target = 3 of 4: halfway through the (2, 3] bucket's two samples.
  EXPECT_DOUBLE_EQ(hv.percentile(75.0), 2.5);
}

TEST(Metrics, PercentileOverflowBucketClampsToHighestFiniteBound) {
  so::MetricsRegistry reg;
  so::Histogram& h = reg.histogram("test.ovf", so::buckets::kIterations);
  h.record(5000.0);  // beyond the last finite bound (1000)
  h.record(9000.0);
  const so::MetricsSnapshot snap = reg.snapshot();
  const auto& hv = snap.histograms[0];
  // No upper edge to interpolate toward: every rank in the overflow
  // bucket reports the highest finite bound.
  EXPECT_DOUBLE_EQ(hv.percentile(50.0), 1000.0);
  EXPECT_DOUBLE_EQ(hv.percentile(99.0), 1000.0);
}

TEST(Metrics, PercentilesAreMonotone) {
  so::MetricsRegistry reg;
  so::Histogram& h = reg.histogram("test.mono", so::buckets::kLatencyMs);
  for (double v : {0.05, 0.2, 0.4, 0.9, 2.0, 4.0, 9.0, 40.0, 900.0,
                   20000.0}) {
    h.record(v);
  }
  const so::MetricsSnapshot snap = reg.snapshot();
  const auto& hv = snap.histograms[0];
  const double p50 = hv.percentile(50.0);
  const double p90 = hv.percentile(90.0);
  const double p99 = hv.percentile(99.0);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
}

TEST(Metrics, HistogramLayoutConflictThrows) {
  so::MetricsRegistry reg;
  reg.histogram("test.h", so::buckets::kIterations);
  EXPECT_NO_THROW(reg.histogram("test.h", so::buckets::kIterations));
  EXPECT_THROW(reg.histogram("test.h", so::buckets::kLatencyMs),
               std::invalid_argument);
}

TEST(Metrics, SnapshotCarriesEveryInstrument) {
  so::MetricsRegistry reg;
  reg.counter("a.count").add(2);
  reg.gauge("a.gauge").set(1.25);
  reg.histogram("a.hist", so::buckets::kLatencyMs).record(3.0);
  const so::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("a.count"), 2u);
  EXPECT_EQ(snap.counter("missing"), 0u);
  EXPECT_DOUBLE_EQ(snap.gauge("a.gauge"), 1.25);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].name, "a.hist");
  EXPECT_EQ(snap.histograms[0].count, 1u);
  // Buckets include the +inf overflow slot.
  EXPECT_EQ(snap.histograms[0].buckets.size(),
            so::buckets::kLatencyMs.count + 1);
}

TEST(Metrics, PreregisterStandardCoversTheSchema) {
  so::MetricsRegistry reg;
  so::names::preregister_standard(reg);
  const so::MetricsSnapshot snap = reg.snapshot();
  EXPECT_GE(snap.counters.size(), 20u);
  EXPECT_GE(snap.gauges.size(), 3u);
  EXPECT_GE(snap.histograms.size(), 3u);
  // Everything preregisters at zero.
  for (const auto& [name, value] : snap.counters) {
    EXPECT_EQ(value, 0u) << name;
  }
}

TEST(Metrics, FlatKeyLookupAndGatingFollowTheSchemaTable) {
  namespace names = so::names;
  // A counter row matches its exact name only.
  const names::MetricDef* retries = names::find_flat("tcad.gummel.retries");
  ASSERT_NE(retries, nullptr);
  EXPECT_STREQ(retries->name, names::kGummelRetries);
  EXPECT_EQ(names::find_flat("tcad.gummel.retries.count"), nullptr);
  EXPECT_EQ(names::find_flat("tcad.gummel.retries.sum"), nullptr);
  EXPECT_EQ(names::find_flat("tcad.gummel"), nullptr);

  // A histogram row matches its flattened .count/.sum keys, not its
  // bare name.
  for (const char* key :
       {"tcad.sweep.point_ms.count", "tcad.sweep.point_ms.sum"}) {
    const names::MetricDef* def = names::find_flat(key);
    ASSERT_NE(def, nullptr) << key;
    EXPECT_STREQ(def->name, names::kSweepPointMs) << key;
  }
  EXPECT_EQ(names::find_flat("tcad.sweep.point_ms"), nullptr);

  EXPECT_EQ(names::find_flat("tcad.gummel.retriez"), nullptr);

  // A latency histogram's .sum is wall clock and never gates; its .count
  // is effort and always gates.
  EXPECT_FALSE(names::regression_gated("tcad.sweep.point_ms.sum"));
  EXPECT_TRUE(names::regression_gated("tcad.sweep.point_ms.count"));
  EXPECT_TRUE(names::regression_gated("tcad.gummel.retries"));

  // Exempt rows never gate.
  for (const char* key : {"cache.hit", "exec.pool.utilization_pct",
                          "tcad.gummel.last_residual"}) {
    ASSERT_NE(names::find_flat(key), nullptr) << key;
    EXPECT_FALSE(names::regression_gated(key)) << key;
  }
}

// ---- timer ----------------------------------------------------------------

TEST(Timer, RecordsIntoHistogram) {
  so::MetricsRegistry reg;
  {
    so::ScopedTimer t(&reg, "test.span_ms");
    EXPECT_GE(t.elapsed_ns(), 0u);
  }
  so::Histogram& h = reg.histogram("test.span_ms", so::buckets::kLatencyMs);
  EXPECT_EQ(h.count(), 1u);
}

TEST(Timer, NullRegistryAndStopAreInert) {
  so::ScopedTimer t(nullptr, "test.unused");
  const double ms = t.stop();
  EXPECT_GE(ms, 0.0);
  // A stopped timer must not double-record on destruction.
  so::MetricsRegistry reg;
  {
    so::ScopedTimer u(&reg, "test.once_ms");
    u.stop();
  }
  EXPECT_EQ(reg.histogram("test.once_ms", so::buckets::kLatencyMs).count(),
            1u);
}

// ---- RunContext -----------------------------------------------------------

TEST(RunContext, ValidatesThreadCount) {
  se::RunContext ctx;
  EXPECT_NO_THROW(ctx.validate());
  ctx.exec.threads = se::RunContext::kMaxThreads + 1;
  EXPECT_THROW(ctx.validate(), std::invalid_argument);
}

TEST(RunContext, SinkPrefersExplicitRegistryThenDefault) {
  DefaultRegistryGuard guard;
  so::set_default_registry(nullptr);
  se::RunContext ctx;
  EXPECT_EQ(ctx.sink(), nullptr);

  so::MetricsRegistry fallback;
  so::set_default_registry(&fallback);
  EXPECT_EQ(ctx.sink(), &fallback);

  so::MetricsRegistry explicit_reg;
  ctx.metrics = &explicit_reg;
  EXPECT_EQ(ctx.sink(), &explicit_reg);
}

// ---- layer instrumentation ------------------------------------------------

TEST(ObsTcad, SweepPublishesCounters) {
  DefaultRegistryGuard guard;
  so::set_default_registry(nullptr);
  so::MetricsRegistry reg;
  se::RunContext ctx;
  ctx.metrics = &reg;
  ctx.no_cache = true;  // every count below is a real solve

  st::TcadDevice dev(nfet_90(), st::kCoarseMesh, {}, ctx);
  const st::SweepResult sweep = dev.id_vg(0.25, 0.0, 0.45, 6);
  EXPECT_TRUE(sweep.all_converged());

  // Exact counts: the solver is deterministic, so any change to its
  // iteration path shows here.
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter(so::names::kSweepPointsAttempted), 6u);
  EXPECT_EQ(snap.counter(so::names::kSweepPointsConverged), 6u);
  EXPECT_EQ(snap.counter(so::names::kSweepPointsFailed), 0u);
  EXPECT_EQ(snap.counter(so::names::kGummelSolves), 9u);
  EXPECT_EQ(snap.counter(so::names::kGummelOuterIterations), 32u);
  EXPECT_EQ(snap.counter(so::names::kPoissonNewtonIterations), 112u);
  EXPECT_EQ(snap.counter(so::names::kPoissonFactorizations), 69u);
  EXPECT_EQ(snap.counter(so::names::kContinuitySolves), 64u);
  EXPECT_EQ(snap.counter(so::names::kContinuityClampedNodes), 0u);
  EXPECT_EQ(snap.counter(so::names::kLinalgBandEntries), 2675028u);
  EXPECT_EQ(snap.counter(so::names::kGummelRetries), 0u);
}

TEST(ObsTcad, ColdSweepRaisesNoDensityToTheFloor) {
  // The 90 nm super-V_th Table 2 device's cold 10-point sweep on the
  // default mesh, the sweep the benchmark's tcad_xval runs. Every
  // continuity system is an M-matrix with a right-hand side of one
  // sign, so no density comes out below the floor. A factorization that
  // breaks the column dominance, such as partial pivoting after row
  // equilibration, leaves thousands of negative densities on this sweep.
  DefaultRegistryGuard guard;
  so::set_default_registry(nullptr);
  so::MetricsRegistry reg;
  se::RunContext ctx;
  ctx.metrics = &reg;
  ctx.no_cache = true;

  st::TcadDevice dev(nfet_90(), st::MeshOptions{}, {}, ctx);
  const st::SweepResult sweep = dev.id_vg(0.25, 0.0, 0.45, 10);
  EXPECT_TRUE(sweep.all_converged());
  const auto snap = reg.snapshot();
  EXPECT_GT(snap.counter(so::names::kContinuitySolves), 0u);
  EXPECT_EQ(snap.counter(so::names::kContinuityClampedNodes), 0u);
}

TEST(ObsTcad, FaultInjectionLeavesCounterEvidence) {
  DefaultRegistryGuard guard;
  so::set_default_registry(nullptr);
  so::MetricsRegistry reg;
  se::RunContext ctx;
  ctx.metrics = &reg;
  ctx.no_cache = true;

  st::GummelOptions faulty;
  faulty.fault.stage = st::SolveStage::kPoisson;
  faulty.fault.count = 1'000'000'000;
  faulty.fault.min_bias = 0.19;
  faulty.fault.max_bias = 0.21;
  st::TcadDevice dev(nfet_90(), st::kCoarseMesh, faulty, ctx);
  const st::SweepResult sweep = dev.id_vg(0.25, 0.0, 0.45, 10);
  ASSERT_EQ(sweep.report.failures.size(), 1u);

  // The unhealing fault walks the retry ladder down to both floors
  // (kMinBiasStep, then kMinDamping) before giving up, so these counts
  // pin the ladder's constants.
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter(so::names::kGummelFaultsInjected), 10u);
  EXPECT_EQ(snap.counter(so::names::kGummelRetries), 10u);
  EXPECT_EQ(snap.counter(so::names::kGummelRollbacks), 10u);
  EXPECT_EQ(snap.counter(so::names::kGummelStepHalvings), 5u);
  EXPECT_EQ(snap.counter(so::names::kGummelDampingTightenings), 4u);
  EXPECT_EQ(snap.counter(so::names::kGummelFailedSolves), 1u);
  EXPECT_EQ(snap.counter(so::names::kSweepPointsFailed), 1u);
}

// ---- determinism contract -------------------------------------------------
// Suite names start with "Parallel" so tools/check.sh's TSAN pass picks
// them up (-R "^(Exec|TaskPool|Parallel)").

TEST(ParallelObs, CounterTotalsBitwiseIdenticalAcrossThreadCounts) {
  constexpr std::size_t kTasks = 64;
  constexpr std::uint64_t kPerTask = 1000;
  std::vector<std::uint64_t> totals;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    so::MetricsRegistry reg;
    so::Counter& c = reg.counter("parallel.total");
    se::rethrow_first(se::parallel_for(
        kTasks,
        [&](std::size_t k) {
          for (std::uint64_t i = 0; i < kPerTask; ++i) {
            c.add(k % 3 == 0 ? 2 : 1);
          }
        },
        se::ExecPolicy{threads}));
    totals.push_back(reg.snapshot().counter("parallel.total"));
  }
  for (std::size_t i = 1; i < totals.size(); ++i) {
    EXPECT_EQ(totals[i], totals[0]) << "thread-count variant " << i;
  }
}

TEST(ParallelObs, SolverCountersMatchSerialAtFourThreads) {
  // The full contract: every integer solver counter and histogram
  // bucket tally from a 2-node tcad_validation must be bitwise equal
  // between the serial path and the 4-thread pool. (Pool metrics and
  // float timing sums are diagnostic-only and deliberately excluded.)
  DefaultRegistryGuard guard;
  so::set_default_registry(nullptr);
  const auto run_with = [](so::MetricsRegistry& reg,
                           const se::ExecPolicy& policy) {
    sco::ScalingStudy study;
    sco::TcadValidationOptions opt;
    opt.nodes = {0, 1};
    opt.points = 6;
    opt.mesh = st::kCoarseMesh;
    opt.run.exec = policy;
    opt.run.metrics = &reg;
    const auto results = study.tcad_validation(opt);
    ASSERT_EQ(results.size(), 2u);
  };

  so::MetricsRegistry serial_reg, pooled_reg;
  run_with(serial_reg, se::ExecPolicy::serial());
  run_with(pooled_reg, se::ExecPolicy{4});

  const auto serial = serial_reg.snapshot();
  const auto pooled = pooled_reg.snapshot();
  ASSERT_EQ(serial.counters.size(), pooled.counters.size());
  for (const auto& [name, value] : serial.counters) {
    EXPECT_EQ(pooled.counter(name), value) << name;
  }
  ASSERT_EQ(serial.histograms.size(), pooled.histograms.size());
  for (std::size_t h = 0; h < serial.histograms.size(); ++h) {
    const auto& a = serial.histograms[h];
    const auto& b = pooled.histograms[h];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.count, b.count) << a.name;
    if (a.name == so::names::kGummelIterationsPerSolve) {
      // Iteration counts are integers: bucket tallies match exactly.
      EXPECT_EQ(a.buckets, b.buckets) << a.name;
    }
  }
}

// ---- overhead -------------------------------------------------------------

TEST(ObsOverhead, DisabledRegistryCostsNearNothing) {
  // With no registry installed anywhere, the instrumented sweep must
  // not be slower than itself by more than noise. Run the same coarse
  // solve with telemetry on and off; the "off" run may not take twice
  // the "on" run plus margin (a catastrophic regression like an
  // always-taken mutex would blow far past this).
  DefaultRegistryGuard guard;
  so::set_default_registry(nullptr);

  const auto timed_sweep = [&](const se::RunContext& ctx) {
    const auto start = std::chrono::steady_clock::now();
    st::TcadDevice dev(nfet_90(), st::kCoarseMesh, {}, ctx);
    const st::SweepResult sweep = dev.id_vg(0.25, 0.0, 0.45, 6);
    EXPECT_TRUE(sweep.all_converged());
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };

  so::MetricsRegistry reg;
  se::RunContext with_metrics;
  with_metrics.metrics = &reg;
  const double on_ms = timed_sweep(with_metrics);
  const double off_ms = timed_sweep(se::RunContext{});
  EXPECT_LT(off_ms, 2.0 * on_ms + 50.0)
      << "disabled-telemetry sweep took " << off_ms << " ms vs " << on_ms
      << " ms with a registry";
  // And nothing was recorded anywhere for the disabled run: the only
  // registry in the process saw exactly one sweep's worth of points.
  EXPECT_EQ(reg.snapshot().counter(so::names::kSweepPointsAttempted), 6u);
}

// ---- span profiler --------------------------------------------------------

TEST(Profiler, NestedSpansRecordDepthParentAndOrder) {
  so::SpanProfiler prof;
  {
    so::ScopedSpan outer(&prof, "outer");
    {
      so::ScopedSpan inner(&prof, "inner");
    }
    {
      so::ScopedSpan inner2(&prof, "inner");
    }
  }
  const so::ProfileSnapshot snap = prof.snapshot();
  ASSERT_EQ(snap.spans.size(), 3u);
  EXPECT_EQ(snap.dropped, 0u);
  // Sorted by open time: outer first, then the two inner spans.
  EXPECT_STREQ(snap.spans[0].label, "outer");
  EXPECT_EQ(snap.spans[0].depth, 0u);
  EXPECT_EQ(snap.spans[0].parent, 0u);
  for (std::size_t i : {std::size_t{1}, std::size_t{2}}) {
    EXPECT_STREQ(snap.spans[i].label, "inner");
    EXPECT_EQ(snap.spans[i].depth, 1u);
    EXPECT_EQ(snap.spans[i].parent, snap.spans[0].seq);
    EXPECT_LE(snap.spans[0].t0_ns, snap.spans[i].t0_ns);
    EXPECT_GE(snap.spans[0].t1_ns, snap.spans[i].t1_ns);
  }
  EXPECT_GE(snap.wall_ns(), snap.spans[0].t1_ns - snap.spans[0].t0_ns);
}

TEST(Profiler, OverflowCountsDroppedInsteadOfGrowing) {
  so::SpanProfiler prof(2);
  for (int i = 0; i < 5; ++i) {
    so::ScopedSpan span(&prof, "s");
  }
  const so::ProfileSnapshot snap = prof.snapshot();
  EXPECT_EQ(snap.spans.size(), 2u);
  EXPECT_EQ(snap.dropped, 3u);
  EXPECT_THROW(so::SpanProfiler(0), std::invalid_argument);
}

TEST(Profiler, NullProfilerSpansAreInert) {
  DefaultProfilerGuard guard;
  so::set_default_profiler(nullptr);
  so::ScopedSpan span(nullptr, "ignored");
  // Reaching here without touching any storage is the contract.
  SUCCEED();
}

TEST(Profiler, RollupComputesSelfTimeAndPercent) {
  so::SpanProfiler prof;
  {
    so::ScopedSpan outer(&prof, "outer");
    so::ScopedSpan inner(&prof, "inner");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const so::ProfileSnapshot snap = prof.snapshot();
  const auto rows = snap.rollup();
  ASSERT_EQ(rows.size(), 2u);
  std::map<std::string, so::ProfileRollupRow> by_label;
  for (const auto& r : rows) by_label[r.label] = r;
  ASSERT_TRUE(by_label.count("outer"));
  ASSERT_TRUE(by_label.count("inner"));
  const auto& outer = by_label["outer"];
  const auto& inner = by_label["inner"];
  EXPECT_EQ(outer.count, 1u);
  EXPECT_EQ(inner.count, 1u);
  EXPECT_EQ(outer.min_depth, 0u);
  EXPECT_EQ(inner.min_depth, 1u);
  // Outer's self time excludes the inner span entirely.
  EXPECT_NEAR(outer.self_ms, outer.total_ms - inner.total_ms, 1e-9);
  EXPECT_NEAR(inner.self_ms, inner.total_ms, 1e-9);
  EXPECT_GT(outer.pct_of_wall, 99.0);

  const std::string table = snap.rollup_table();
  EXPECT_NE(table.find("span"), std::string::npos);
  EXPECT_NE(table.find("outer"), std::string::npos);
  EXPECT_NE(table.find("  inner"), std::string::npos);  // depth-indented
}

TEST(Profiler, LabelAndEdgeCountsWalkParentChains) {
  so::SpanProfiler prof;
  for (int i = 0; i < 3; ++i) {
    so::ScopedSpan a(&prof, "a");
    so::ScopedSpan b(&prof, "b");
  }
  const so::ProfileSnapshot snap = prof.snapshot();
  const auto labels = snap.label_counts();
  EXPECT_EQ(labels.at("a"), 3u);
  EXPECT_EQ(labels.at("b"), 3u);
  const auto edges = snap.edge_counts();
  EXPECT_EQ(edges.at({"", "a"}), 3u);
  EXPECT_EQ(edges.at({"a", "b"}), 3u);
}

TEST(Profiler, DefaultProfilerInstallAndFallback) {
  DefaultProfilerGuard guard;
  so::set_default_profiler(nullptr);
  EXPECT_EQ(so::default_profiler(), nullptr);
  se::RunContext ctx;
  EXPECT_EQ(ctx.span_sink(), nullptr);

  so::SpanProfiler fallback;
  so::set_default_profiler(&fallback);
  EXPECT_EQ(ctx.span_sink(), &fallback);

  so::SpanProfiler explicit_prof;
  ctx.profiler = &explicit_prof;
  EXPECT_EQ(ctx.span_sink(), &explicit_prof);
}

// ---- convergence recorder -------------------------------------------------

TEST(Convergence, RecorderCapacityAndDropAccounting) {
  EXPECT_THROW(so::ConvergenceRecorder(0), std::invalid_argument);
  so::ConvergenceRecorder rec(2);
  for (int i = 0; i < 3; ++i) {
    so::SolveTrajectory t;
    t.vg = 0.1 * i;
    t.samples.push_back({1, 1e-3, 5, 1e23, 1e-4});
    rec.commit(std::move(t));
  }
  EXPECT_EQ(rec.capacity(), 2u);
  EXPECT_EQ(rec.total_solves(), 3u);
  EXPECT_EQ(rec.dropped_solves(), 1u);
  const auto solves = rec.snapshot();
  ASSERT_EQ(solves.size(), 2u);
  EXPECT_DOUBLE_EQ(solves[1].vg, 0.1);
  rec.clear();
  EXPECT_EQ(rec.total_solves(), 0u);
  EXPECT_EQ(rec.snapshot().size(), 0u);
}

TEST(ObsTcad, ConvergenceRecorderCapturesResidualDecay) {
  DefaultRegistryGuard guard;
  so::set_default_registry(nullptr);
  so::ConvergenceRecorder rec;
  se::RunContext ctx;
  ctx.convergence = &rec;
  st::GummelOptions gummel;
  st::TcadDevice dev(nfet_90(), st::kCoarseMesh, gummel, ctx);
  const st::SweepResult sweep = dev.id_vg(0.25, 0.0, 0.3, 4);
  ASSERT_TRUE(sweep.all_converged());

  const auto solves = rec.snapshot();
  ASSERT_FALSE(solves.empty());
  EXPECT_EQ(rec.total_solves(), solves.size());
  for (const auto& solve : solves) {
    ASSERT_FALSE(solve.samples.empty());
    ASSERT_TRUE(solve.converged);
    // Iterations are 1-based and consecutive; the final outer update is
    // below the solver's convergence tolerance.
    for (std::size_t i = 0; i < solve.samples.size(); ++i) {
      EXPECT_EQ(solve.samples[i].iteration, i + 1);
      EXPECT_GT(solve.samples[i].poisson_iterations, 0u);
      EXPECT_TRUE(std::isfinite(solve.samples[i].psi_update));
      EXPECT_GT(solve.samples[i].continuity_max_density, 0.0);
    }
    EXPECT_LT(solve.samples.back().psi_update, gummel.psi_tolerance);
  }
  // The recorder saw every Gummel solve: the equilibrium solve plus at
  // least one continuation solve per attempted sweep point.
  EXPECT_GE(solves.size(), 1u + sweep.report.attempted);
}

TEST(ObsTcad, ConvergenceRecorderKeepsFailedSolvePrefix) {
  DefaultRegistryGuard guard;
  so::set_default_registry(nullptr);
  so::ConvergenceRecorder rec;
  se::RunContext ctx;
  ctx.convergence = &rec;
  // Inject an unhealable Poisson failure at iteration 0 in a narrow
  // bias window: those solves abort with a partial (NaN-tailed) sample.
  st::GummelOptions faulty;
  faulty.fault.stage = st::SolveStage::kPoisson;
  faulty.fault.at_iteration = 0;
  faulty.fault.count = 1'000'000'000;
  faulty.fault.min_bias = 0.19;
  faulty.fault.max_bias = 0.21;
  st::TcadDevice dev(nfet_90(), st::kCoarseMesh, faulty, ctx);
  const st::SweepResult sweep = dev.id_vg(0.25, 0.0, 0.45, 10);
  EXPECT_FALSE(sweep.all_converged());

  bool saw_failed = false;
  for (const auto& solve : rec.snapshot()) {
    if (solve.converged) continue;
    saw_failed = true;
    ASSERT_FALSE(solve.samples.empty());
    const auto& last = solve.samples.back();
    // The Poisson stage failed, so the later stages never ran.
    EXPECT_TRUE(std::isnan(last.continuity_max_density));
    EXPECT_TRUE(std::isnan(last.psi_update));
  }
  EXPECT_TRUE(saw_failed);
}

// ---- profiler determinism + thread safety ---------------------------------

TEST(ParallelProfiler, ConcurrentRecordingMergesEveryThread) {
  so::SpanProfiler prof;
  constexpr std::size_t kTasks = 32;
  se::rethrow_first(se::parallel_for(
      kTasks,
      [&](std::size_t) {
        so::ScopedSpan outer(&prof, "task.outer");
        so::ScopedSpan inner(&prof, "task.inner");
      },
      se::ExecPolicy{4}));
  const so::ProfileSnapshot snap = prof.snapshot();
  EXPECT_EQ(snap.dropped, 0u);
  const auto labels = snap.label_counts();
  EXPECT_EQ(labels.at("task.outer"), kTasks);
  EXPECT_EQ(labels.at("task.inner"), kTasks);
  const auto edges = snap.edge_counts();
  EXPECT_EQ(edges.at({"task.outer", "task.inner"}), kTasks);
}

TEST(ParallelProfiler, TaskSpansAttributeDistinctThreads) {
  so::SpanProfiler prof;
  // Two tasks that rendezvous: neither finishes until both have
  // started, so a 2-thread pool must run them on distinct workers.
  std::atomic<int> started{0};
  se::rethrow_first(se::parallel_for(
      2,
      [&](std::size_t) {
        started.fetch_add(1);
        while (started.load() < 2) std::this_thread::yield();
      },
      se::ExecPolicy{2}, &prof));
  const so::ProfileSnapshot snap = prof.snapshot();
  ASSERT_EQ(snap.spans.size(), 2u);
  std::set<std::uint32_t> tids;
  for (const auto& span : snap.spans) {
    EXPECT_STREQ(span.label, so::names::spans::kTask);
    tids.insert(span.tid);
  }
  EXPECT_EQ(tids.size(), 2u) << "task spans attributed to one thread";
}

TEST(ParallelProfiler, SnapshotWhileRecordingIsSafe) {
  so::SpanProfiler prof;
  std::atomic<bool> stop{false};
  std::thread recorder([&] {
    while (!stop.load()) {
      so::ScopedSpan span(&prof, "live");
    }
  });
  std::uint64_t last = 0;
  for (int i = 0; i < 50; ++i) {
    const so::ProfileSnapshot snap = prof.snapshot();
    // Published span counts are monotone and every record is complete.
    EXPECT_GE(snap.spans.size() + snap.dropped, last);
    last = snap.spans.size() + snap.dropped;
    for (const auto& s : snap.spans) {
      EXPECT_STREQ(s.label, "live");
      EXPECT_GE(s.t1_ns, s.t0_ns);
    }
  }
  stop.store(true);
  recorder.join();
}

TEST(ParallelProfiler, SpanCountsBitwiseIdenticalAcrossThreadCounts) {
  // The §10.3 contract extended to nesting: per-label span tallies and
  // per-(parent,label) edge tallies from a 2-node tcad_validation are
  // identical at 1, 2 and 4 threads. Timestamps/durations/tids are
  // wall-clock artifacts and deliberately not compared.
  DefaultRegistryGuard guard;
  DefaultProfilerGuard prof_guard;
  so::set_default_registry(nullptr);
  so::set_default_profiler(nullptr);

  using Labels = std::map<std::string, std::uint64_t>;
  using Edges = std::map<std::pair<std::string, std::string>, std::uint64_t>;
  const auto run_with = [](const se::ExecPolicy& policy, Labels& labels,
                           Edges& edges) {
    so::SpanProfiler prof;
    sco::ScalingStudy study;
    sco::TcadValidationOptions opt;
    opt.nodes = {0, 1};
    opt.points = 6;
    opt.mesh = st::kCoarseMesh;
    opt.run.exec = policy;
    opt.run.profiler = &prof;
    const auto results = study.tcad_validation(opt);
    ASSERT_EQ(results.size(), 2u);
    const so::ProfileSnapshot snap = prof.snapshot();
    ASSERT_EQ(snap.dropped, 0u);
    labels = snap.label_counts();
    edges = snap.edge_counts();
  };

  Labels serial_labels;
  Edges serial_edges;
  run_with(se::ExecPolicy::serial(), serial_labels, serial_edges);

  // The expected shape, not just self-consistency: every study node ran
  // in a task span, each sweep point nests under its node, and a
  // direct solver is the leaf under both Gummel stages: the LDLᵀ under
  // Poisson, the LU under continuity.
  namespace spans = so::names::spans;
  EXPECT_EQ(serial_labels.at(spans::kTask), 2u);
  EXPECT_EQ(serial_labels.at(spans::kStudyNode), 2u);
  EXPECT_EQ(serial_labels.at(spans::kSweepPoint), 12u);
  EXPECT_EQ(serial_edges.at({"", spans::kTask}), 2u);
  EXPECT_EQ(serial_edges.at({spans::kTask, spans::kStudyNode}), 2u);
  EXPECT_EQ(serial_edges.at({spans::kStudyNode, spans::kSweepPoint}), 12u);
  EXPECT_GT(
      serial_edges.at({spans::kGummelPoisson, spans::kBandedLdltSolve}), 0u);
  EXPECT_GT(
      serial_edges.at({spans::kGummelContinuity, spans::kBandedLuSolve}),
      0u);

  for (const std::size_t threads : {2u, 4u}) {
    Labels labels;
    Edges edges;
    run_with(se::ExecPolicy{threads}, labels, edges);
    EXPECT_EQ(labels, serial_labels) << "at " << threads << " threads";
    EXPECT_EQ(edges, serial_edges) << "at " << threads << " threads";
  }
}
