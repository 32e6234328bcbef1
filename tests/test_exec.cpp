#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "circuits/variability.h"
#include "core/scaling_study.h"
#include "exec/parallel.h"
#include "exec/policy.h"
#include "exec/rng.h"
#include "exec/task_pool.h"
#include "scaling/subvth_strategy.h"
#include "scaling/supervth_strategy.h"

namespace ex = subscale::exec;
namespace sco = subscale::core;
namespace scl = subscale::scaling;
namespace cc = subscale::circuits;

// ---------------------------------------------------------------------
// ExecPolicy resolution
// ---------------------------------------------------------------------

TEST(ExecPolicy, ExplicitCountWins) {
  EXPECT_EQ(ex::ExecPolicy{3}.resolved_threads(), 3u);
  EXPECT_EQ(ex::ExecPolicy::serial().resolved_threads(), 1u);
}

TEST(ExecPolicy, EnvironmentOverrideAppliesToAutoOnly) {
  ::setenv("SUBSCALE_THREADS", "5", 1);
  EXPECT_EQ(ex::env_thread_override(), 5u);
  EXPECT_EQ(ex::ExecPolicy{}.resolved_threads(), 5u);
  EXPECT_EQ(ex::ExecPolicy{2}.resolved_threads(), 2u);  // explicit wins
  ::unsetenv("SUBSCALE_THREADS");
}

TEST(ExecPolicy, InvalidEnvironmentFallsBackToHardware) {
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  for (const char* bad : {"", "zero", "-2", "0"}) {
    ::setenv("SUBSCALE_THREADS", bad, 1);
    EXPECT_EQ(ex::env_thread_override(), 0u) << '"' << bad << '"';
    EXPECT_EQ(ex::ExecPolicy{}.resolved_threads(), hw) << '"' << bad << '"';
  }
  ::unsetenv("SUBSCALE_THREADS");
}

// ---------------------------------------------------------------------
// TaskPool
// ---------------------------------------------------------------------

TEST(TaskPool, RunsEverySubmittedTask) {
  ex::TaskPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> sum{0};
  for (int i = 1; i <= 100; ++i) {
    pool.submit([&sum, i] { sum.fetch_add(i); });
  }
  pool.wait_idle();
  EXPECT_EQ(sum.load(), 5050);
}

TEST(TaskPool, WaitIdleIsReentrant) {
  ex::TaskPool pool(2);
  pool.wait_idle();  // nothing queued: returns immediately
  std::atomic<int> runs{0};
  pool.submit([&runs] { runs.fetch_add(1); });
  pool.wait_idle();
  pool.wait_idle();
  EXPECT_EQ(runs.load(), 1);
}

TEST(TaskPool, WorkerThreadFlagIsVisibleOnlyInsideTasks) {
  EXPECT_FALSE(ex::TaskPool::on_worker_thread());
  ex::TaskPool pool(2);
  std::atomic<bool> inside{false};
  pool.submit([&inside] { inside = ex::TaskPool::on_worker_thread(); });
  pool.wait_idle();
  EXPECT_TRUE(inside.load());
  EXPECT_FALSE(ex::TaskPool::on_worker_thread());
}

// ---------------------------------------------------------------------
// parallel_for / parallel_map
// ---------------------------------------------------------------------

TEST(Parallel, ForCoversEveryIndexAtAnyThreadCount) {
  for (const std::size_t threads : {1u, 2u, 4u, 9u}) {
    std::vector<int> hits(257, 0);
    const auto errors = ex::parallel_for(
        hits.size(), [&](std::size_t i) { hits[i] += 1; },
        ex::ExecPolicy{threads});
    EXPECT_TRUE(errors.empty());
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 257)
        << threads << " threads";
  }
}

TEST(Parallel, SerialPolicyRunsInlineInIndexOrder) {
  // threads = 1 is the exact serial path: same thread, index order.
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  const auto errors = ex::parallel_for(
      5,
      [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
      },
      ex::ExecPolicy::serial());
  EXPECT_TRUE(errors.empty());
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(Parallel, MapReturnsValuesInIndexOrder) {
  const auto square = [](std::size_t i) { return i * i; };
  const auto serial =
      ex::parallel_map<std::size_t>(64, square, ex::ExecPolicy::serial());
  for (const std::size_t threads : {2u, 4u, 7u}) {
    const auto results =
        ex::parallel_map<std::size_t>(64, square, ex::ExecPolicy{threads});
    ASSERT_EQ(results.size(), serial.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].index, i);
      ASSERT_TRUE(results[i].ok());
      EXPECT_EQ(*results[i].value, *serial[i].value);
    }
  }
}

TEST(Parallel, ThrowingTaskIsCapturedWhileOthersComplete) {
  std::atomic<int> completed{0};
  const auto results = ex::parallel_map<int>(
      8,
      [&](std::size_t i) -> int {
        if (i == 3) throw std::runtime_error("task 3 failed");
        completed.fetch_add(1);
        return static_cast<int>(i);
      },
      ex::ExecPolicy{4});
  EXPECT_EQ(completed.load(), 7);  // the other seven still ran
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i == 3) {
      EXPECT_FALSE(results[i].ok());
      EXPECT_EQ(results[i].error, "task 3 failed");
      ASSERT_TRUE(results[i].exception);
    } else {
      ASSERT_TRUE(results[i].ok()) << "index " << i;
      EXPECT_EQ(*results[i].value, static_cast<int>(i));
    }
  }
  EXPECT_THROW(ex::rethrow_first(results), std::runtime_error);
  EXPECT_THROW(ex::values_or_throw(results), std::runtime_error);
}

TEST(Parallel, RethrowFirstPicksLowestIndexNotCompletionOrder) {
  for (const std::size_t threads : {1u, 4u}) {
    const auto errors = ex::parallel_for(
        10,
        [](std::size_t i) {
          if (i % 2 == 0) throw std::out_of_range("even " + std::to_string(i));
        },
        ex::ExecPolicy{threads});
    ASSERT_EQ(errors.size(), 5u);
    EXPECT_EQ(errors.front().index, 0u);  // sorted by index
    EXPECT_EQ(errors.front().message, "even 0");
    try {
      ex::rethrow_first(errors);
      FAIL() << "expected rethrow";
    } catch (const std::out_of_range& e) {
      EXPECT_STREQ(e.what(), "even 0");
    }
  }
}

TEST(Parallel, ValuesOrThrowUnwrapsAllSuccess) {
  const auto values = ex::values_or_throw(ex::parallel_map<int>(
      5, [](std::size_t i) { return static_cast<int>(2 * i); },
      ex::ExecPolicy{3}));
  EXPECT_EQ(values, (std::vector<int>{0, 2, 4, 6, 8}));
}

TEST(Parallel, NestedCallsRunInlineWithoutDeadlock) {
  // Layered parallelism (roadmap -> per-node scan) must not submit to a
  // second pool from a worker thread. The inner call degrades inline.
  std::atomic<int> inner_on_worker{0};
  const auto outer = ex::parallel_map<int>(
      6,
      [&](std::size_t i) {
        int sum = 0;
        const auto errors = ex::parallel_for(
            4,
            [&](std::size_t j) {
              if (ex::TaskPool::on_worker_thread()) inner_on_worker.fetch_add(1);
              sum += static_cast<int>(i * 10 + j);
            },
            ex::ExecPolicy{4});
        EXPECT_TRUE(errors.empty());
        return sum;
      },
      ex::ExecPolicy{3});
  for (std::size_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(outer[i].ok());
    EXPECT_EQ(*outer[i].value, static_cast<int>(40 * i + 6));
  }
  // Every inner iteration observed itself on a pool worker (proof the
  // outer level was really parallel while the inner level ran inline).
  EXPECT_EQ(inner_on_worker.load(), 24);
}

TEST(ExecRng, SeedStreamsAreStableAndDistinct) {
  // Shard seeding must be a pure function (reproducibility across runs
  // and thread counts) and must decorrelate neighbouring shards.
  EXPECT_EQ(ex::seed_stream(1, 0), ex::seed_stream(1, 0));
  EXPECT_NE(ex::seed_stream(1, 0), ex::seed_stream(1, 1));
  EXPECT_NE(ex::seed_stream(1, 0), ex::seed_stream(2, 0));
  static_assert(ex::splitmix64(0) != 0, "splitmix64 must scramble zero");
}

// ---------------------------------------------------------------------
// Determinism contract on the real refactored call sites
// ---------------------------------------------------------------------

namespace {

const sco::ScalingStudy& study() {
  static const sco::ScalingStudy s;
  return s;
}

void expect_identical(const std::vector<sco::TcadNodeValidation>& a,
                      const std::vector<sco::TcadNodeValidation>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].node, b[i].node);
    EXPECT_EQ(a[i].lpoly_nm, b[i].lpoly_nm);
    EXPECT_EQ(a[i].error, b[i].error);
    ASSERT_EQ(a[i].sweep.size(), b[i].sweep.size());
    for (std::size_t p = 0; p < a[i].sweep.size(); ++p) {
      // Bitwise comparison on purpose: the fan-out must not change a bit.
      EXPECT_EQ(a[i].sweep[p].vg, b[i].sweep[p].vg);
      EXPECT_EQ(a[i].sweep[p].id, b[i].sweep[p].id);
    }
    EXPECT_EQ(a[i].report.attempted, b[i].report.attempted);
    ASSERT_EQ(a[i].report.failures.size(), b[i].report.failures.size());
    for (std::size_t p = 0; p < a[i].report.failures.size(); ++p) {
      EXPECT_EQ(a[i].report.failures[p].vg, b[i].report.failures[p].vg);
    }
  }
}

}  // namespace

TEST(ParallelDeterminism, TcadValidationMatchesSerialBitwise) {
  sco::TcadValidationOptions opt;
  opt.nodes = {0, 1};
  opt.points = 6;
  opt.mesh = subscale::tcad::kCoarseMesh;  // keep the test fast

  opt.run.exec = ex::ExecPolicy::serial();
  const auto serial = study().tcad_validation(opt);
  opt.run.exec = ex::ExecPolicy{4};
  const auto pooled = study().tcad_validation(opt);
  expect_identical(serial, pooled);
}

TEST(ParallelDeterminism, VariabilityMonteCarloMatchesSerialBitwise) {
  const auto inv = study().super_inverter(0, 0.25);
  cc::VariabilityOptions opt;
  opt.samples = 200;
  opt.exec = ex::ExecPolicy::serial();
  const auto serial = cc::delay_variability(inv, {}, opt);
  for (const std::size_t threads : {2u, 4u, 5u}) {
    opt.exec = ex::ExecPolicy{threads};
    const auto pooled = cc::delay_variability(inv, {}, opt);
    EXPECT_EQ(serial.mean, pooled.mean) << threads << " threads";
    EXPECT_EQ(serial.sigma, pooled.sigma);
    EXPECT_EQ(serial.sigma_over_mean, pooled.sigma_over_mean);
    EXPECT_EQ(serial.sigma_ln, pooled.sigma_ln);
    EXPECT_EQ(serial.samples, pooled.samples);
  }
}

TEST(ParallelDeterminism, RoadmapsMatchSerialBitwise) {
  scl::SuperVthOptions sup;
  sup.exec = ex::ExecPolicy::serial();
  const auto sup_serial = scl::supervth_roadmap(subscale::compact::paper_calibration(), sup);
  sup.exec = ex::ExecPolicy{4};
  const auto sup_pooled = scl::supervth_roadmap(subscale::compact::paper_calibration(), sup);
  ASSERT_EQ(sup_serial.size(), sup_pooled.size());
  for (std::size_t i = 0; i < sup_serial.size(); ++i) {
    EXPECT_EQ(sup_serial[i].nsub_cm3, sup_pooled[i].nsub_cm3);
    EXPECT_EQ(sup_serial[i].vth_sat_mv, sup_pooled[i].vth_sat_mv);
    EXPECT_EQ(sup_serial[i].ss_mv_dec, sup_pooled[i].ss_mv_dec);
    EXPECT_EQ(sup_serial[i].tau_ps, sup_pooled[i].tau_ps);
  }

  scl::SubVthOptions sub;
  sub.exec = ex::ExecPolicy::serial();
  const auto sub_serial = scl::subvth_roadmap(sub);
  sub.exec = ex::ExecPolicy{4};
  const auto sub_pooled = scl::subvth_roadmap(sub);
  ASSERT_EQ(sub_serial.size(), sub_pooled.size());
  for (std::size_t i = 0; i < sub_serial.size(); ++i) {
    EXPECT_EQ(sub_serial[i].lpoly_opt_nm, sub_pooled[i].lpoly_opt_nm);
    EXPECT_EQ(sub_serial[i].energy_factor_raw, sub_pooled[i].energy_factor_raw);
    EXPECT_EQ(sub_serial[i].device.ss_mv_dec, sub_pooled[i].device.ss_mv_dec);
  }
}

TEST(ParallelDeterminism, StudyCachesAreSafeUnderConcurrentFirstAccess) {
  // satellite: super_devices()/sub_devices() lazy init behind
  // std::once_flag — hammer a fresh study from many threads at once.
  const sco::ScalingStudy fresh;
  std::vector<const void*> super_ptrs(8, nullptr), sub_ptrs(8, nullptr);
  const auto errors = ex::parallel_for(
      8,
      [&](std::size_t i) {
        super_ptrs[i] = &fresh.super_devices();
        sub_ptrs[i] = &fresh.sub_devices();
      },
      ex::ExecPolicy{8});
  EXPECT_TRUE(errors.empty());
  for (std::size_t i = 1; i < 8; ++i) {
    EXPECT_EQ(super_ptrs[i], super_ptrs[0]);  // one object, initialized once
    EXPECT_EQ(sub_ptrs[i], sub_ptrs[0]);
  }
}
