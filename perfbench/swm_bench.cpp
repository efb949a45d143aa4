/// \file swm_bench.cpp
/// nested_swm: the real shallow-water model on a 384² parent with four
/// ratio-3 siblings (288² child grids), integrated through
/// NestedSimulation on a thread pool, and the traced run that splits a
/// parent step into its swm / nest / util building blocks.

#include <cstring>
#include <iostream>
#include <memory>
#include <numeric>
#include <unistd.h>

#include "common.hpp"
#include "nest/simulation.hpp"
#include "swm/diagnostics.hpp"
#include "swm/dynamics.hpp"
#include "swm/init.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using namespace nestwx;

namespace {

constexpr int kParentCells = 384;
constexpr int kNestCells = 96;  ///< parent cells each sibling covers per axis
constexpr int kRatio = 3;
/// Parent steps per episode. Every episode starts from the same seeded
/// state, so its final state must match one serial integration.
constexpr int kEpisodeSteps = 100;
/// Parent steps of the decomposed (serial, building-block) replay.
constexpr int kReplaySteps = 6;
/// Set-ups timed on their own before every episode, on top of the
/// episode's.
constexpr int kExtraSetupsPerEpisode = 2;
/// Untimed parent steps before the timed episodes.
constexpr int kWarmupSteps = 10;
/// Consecutive parent steps per throughput sample. The end-to-end
/// metrics are the median over these windows, so a stall on the shared
/// host moves one sample rather than the run's mean.
constexpr int kWindowSteps = 10;
static_assert(kEpisodeSteps % kWindowSteps == 0);
/// Pool workers. Two, not nproc: at four, a worker whose virtual CPU the
/// host steals holds up every step while the others spin, and both the
/// wall and the CPU time of a step follow the steal rate (see
/// perfbench/README.md).
constexpr int kPoolThreads = 2;

swm::ModelParams model_params() {
  swm::ModelParams p;
  p.coriolis = 1e-4;
  p.viscosity = 40.0;
  p.boundary = swm::BoundaryKind::wall;
  return p;
}

std::vector<nest::NestSpec> nest_specs() {
  const int lo = 40;
  const int hi = kParentCells - lo - kNestCells;
  return {nest::NestSpec{"sw", lo, lo, kNestCells, kNestCells, kRatio},
          nest::NestSpec{"se", hi, lo, kNestCells, kNestCells, kRatio},
          nest::NestSpec{"nw", lo, hi, kNestCells, kNestCells, kRatio},
          nest::NestSpec{"ne", hi, hi, kNestCells, kNestCells, kRatio}};
}

/// The seeded initial parent state: a balanced depression plus a random
/// depth perturbation drawn from the workload seed.
swm::State initial_state(std::uint64_t seed) {
  swm::GridSpec g;
  g.nx = g.ny = kParentCells;
  g.dx = g.dy = 1000.0;
  swm::State s = swm::depression(g, 1e-4, 0.45, 0.55);
  util::Rng rng(seed);
  swm::perturb(s, rng, 0.5);
  return s;
}

std::unique_ptr<nest::NestedSimulation> make_sim(std::uint64_t seed) {
  return std::make_unique<nest::NestedSimulation>(initial_state(seed),
                                                  model_params(), nest_specs());
}

/// Cells integrated per parent step: parent cells plus r × each sibling.
double cells_per_step() {
  double cells = static_cast<double>(kParentCells) * kParentCells;
  for (const auto& n : nest_specs())
    cells += kRatio * static_cast<double>(n.child_nx()) * n.child_ny();
  return cells;
}

bool finite(const nest::NestedSimulation& sim, util::ThreadPool* pool) {
  if (!swm::all_finite(sim.parent(), pool, 0)) return false;
  for (std::size_t k = 0; k < sim.sibling_count(); ++k)
    if (!swm::all_finite(sim.sibling(k).state())) return false;
  return true;
}

template <typename Fn>
void for_each_field(const nest::NestedSimulation& sim, Fn fn) {
  const auto state = [&](const swm::State& s) {
    fn(s.h.raw());
    fn(s.u.raw());
    fn(s.v.raw());
  };
  state(sim.parent());
  for (std::size_t k = 0; k < sim.sibling_count(); ++k)
    state(sim.sibling(k).state());
}

std::uint64_t digest(const nest::NestedSimulation& sim) {
  std::uint64_t h = util::kFnvOffsetBasis;
  for_each_field(sim, [&](std::span<const double> f) {
    h = util::fnv1a(f.data(), f.size_bytes(), h);
  });
  return h;
}

bool bit_identical(const nest::NestedSimulation& a,
                   const nest::NestedSimulation& b) {
  std::vector<std::span<const double>> fa, fb;
  for_each_field(a, [&](std::span<const double> f) { fa.push_back(f); });
  for_each_field(b, [&](std::span<const double> f) { fb.push_back(f); });
  for (std::size_t i = 0; i < fa.size(); ++i)
    if (fa[i].size() != fb[i].size() ||
        std::memcmp(fa[i].data(), fb[i].data(), fa[i].size_bytes()) != 0)
      return false;
  return true;
}

std::size_t state_bytes(const swm::State& s) {
  return (s.h.raw().size() + s.u.raw().size() + s.v.raw().size() +
          s.b.raw().size()) *
         sizeof(double);
}

/// Resident arrays of the simulation, from their sizes: the parent state
/// plus its pre/post snapshots and two RK3 stage buffers; each sibling's
/// state, two stage buffers and six ghost-staging fields (about 1.5
/// states).
double working_set_mb(const nest::NestedSimulation& sim) {
  double bytes = 5.0 * static_cast<double>(state_bytes(sim.parent()));
  for (std::size_t k = 0; k < sim.sibling_count(); ++k)
    bytes += 4.5 * static_cast<double>(state_bytes(sim.sibling(k).state()));
  return bytes / (1024.0 * 1024.0);
}

/// One episode: build the simulation from the seed and integrate
/// kEpisodeSteps parent steps, timing each advance().
struct Episode {
  double setup_s = 0.0;
  std::vector<double> step_ms;
  std::vector<double> step_cpu_ms;  ///< process CPU time of each advance()
  long long nonfinite_steps = 0;
  std::unique_ptr<nest::NestedSimulation> sim;
};

Episode run_episode(std::uint64_t seed, double dt, util::ThreadPool& pool,
                    Tracer* tr) {
  Episode e;
  const std::int64_t t0 = now_ns();
  {
    Tracer::Scope s(tr, "nest.construct", "nest");
    e.sim = make_sim(seed);
    e.sim->set_thread_pool(&pool);
  }
  e.setup_s = seconds_since(t0);
  for (int i = 0; i < kEpisodeSteps; ++i) {
    const std::int64_t t = now_ns();
    const double cpu = cpu_now_s();
    {
      Tracer::Scope s(tr, "nest.advance", "nest", "step-" + std::to_string(i));
      e.sim->advance(dt);
    }
    e.step_ms.push_back(static_cast<double>(now_ns() - t) * 1e-6);
    e.step_cpu_ms.push_back((cpu_now_s() - cpu) * 1e3);
    Tracer::Scope s(tr, "harness.finite_check", "harness");
    if (!finite(*e.sim, &pool)) ++e.nonfinite_steps;
  }
  return e;
}

/// Units of work per second in each window of kWindowSteps consecutive
/// steps, from per-step milliseconds.
std::vector<double> window_steps_per_s(const std::vector<double>& ms) {
  std::vector<double> rates;
  for (std::size_t i = 0; i + kWindowSteps <= ms.size(); i += kWindowSteps) {
    const auto w = ms.begin() + static_cast<std::ptrdiff_t>(i);
    rates.push_back(1e3 * kWindowSteps / std::accumulate(w, w + kWindowSteps, 0.0));
  }
  return rates;
}

double stable_dt(std::uint64_t seed) { return 0.5 * make_sim(seed)->stable_dt(0.4); }

/// The serial, pool-free integration every episode must reproduce.
std::unique_ptr<nest::NestedSimulation> serial_reference(std::uint64_t seed,
                                                         double dt) {
  auto sim = make_sim(seed);
  sim->run(dt, kEpisodeSteps);
  return sim;
}

/// Time `fn` under a span, returning microseconds.
template <typename Fn>
double timed_us(Tracer& tr, const char* name, const char* layer, Fn fn) {
  Tracer::Scope s(&tr, name, layer);
  const std::int64_t t0 = now_ns();
  fn();
  return static_cast<double>(now_ns() - t0) * 1e-3;
}

/// Split parent steps into the building blocks advance() is made of,
/// called one by one on the harness thread: the parent RK3 step, each
/// sibling's ghost staging, r ghost blends and child steps, and the
/// restriction feedback.
void decomposed_replay(const nest::NestedSimulation& from, double dt,
                       Tracer& tr, Result& result) {
  const swm::ModelParams params = model_params();
  swm::State parent = from.parent();
  swm::Stepper parent_stepper(parent.grid, params);
  std::vector<std::unique_ptr<nest::NestedDomain>> doms;
  std::vector<std::unique_ptr<swm::Stepper>> steppers;
  for (const auto& spec : nest_specs()) {
    doms.push_back(std::make_unique<nest::NestedDomain>(parent, spec));
    swm::ModelParams cp = params;
    cp.boundary = swm::BoundaryKind::open;
    cp.viscosity = params.viscosity / spec.ratio;
    steppers.push_back(
        std::make_unique<swm::Stepper>(doms.back()->state().grid, cp));
  }
  std::vector<double> parent_ms, child_ms, stage_us, feedback_us;
  for (int step = 0; step < kReplaySteps; ++step) {
    Tracer::Scope step_span(&tr, "nest.replay_step", "harness",
                            "step-" + std::to_string(step));
    const swm::State prev = parent;
    parent_ms.push_back(
        1e-3 * timed_us(tr, "swm.parent_step", "swm",
                        [&] { parent_stepper.step(parent, dt); }));
    for (std::size_t k = 0; k < doms.size(); ++k) {
      nest::NestedDomain& dom = *doms[k];
      const int r = dom.spec().ratio;
      stage_us.push_back(timed_us(tr, "nest.ghost_stage", "nest", [&] {
        dom.stage_ghosts_prev(prev);
        dom.stage_ghosts_next(parent);
      }));
      for (int sub = 1; sub <= r; ++sub) {
        timed_us(tr, "nest.ghost_blend", "nest", [&] {
          dom.blend_staged_ghosts(static_cast<double>(sub) / r);
        });
        child_ms.push_back(
            1e-3 * timed_us(tr, "swm.child_step", "swm", [&] {
              steppers[k]->step(dom.state(), dt / r);
            }));
      }
      feedback_us.push_back(timed_us(tr, "nest.feedback", "nest", [&] {
        nest::FeedbackPatch patch;
        dom.feedback_compute(patch);
        dom.feedback_apply(parent, patch);
      }));
    }
  }
  const double parent_p50 = percentile(parent_ms, 50);
  const double child_p50 = percentile(child_ms, 50);
  const double sibling_work =
      static_cast<double>(doms.size()) * kRatio * child_p50;
  result.set("swm.parent_step_ms_p50", parent_p50);
  result.set("swm.child_step_ms_p50", child_p50);
  result.set("nest.ghost_stage_us_p50", percentile(stage_us, 50));
  result.set("nest.feedback_us_p50", percentile(feedback_us, 50));
  result.set("nest.sibling_share", sibling_work / (parent_p50 + sibling_work));
}

}  // namespace

void run_swm(const Args& args, Result& result) {
  const int threads = bench_threads(kPoolThreads);
  util::ThreadPool pool(threads);
  const double dt = stable_dt(args.seed);
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  std::cout << "nested_swm: " << kParentCells << "^2 parent, 4 siblings of "
            << kNestCells * kRatio << "^2 at ratio " << kRatio << ", "
            << kEpisodeSteps << " steps per episode, dt " << dt << " s, "
            << threads << " thread(s)\n";

  // A few untimed steps first, so the pool and the caches are warm.
  {
    auto warm = make_sim(args.seed);
    warm->set_thread_pool(&pool);
    warm->run(dt, kWarmupSteps);
  }
  // Set-up is short next to an episode: repeat it alone between
  // episodes, so its median rests on samples spread over the whole run.
  std::vector<double> setup_s;
  const auto extra_setups = [&] {
    for (int i = 0; i < kExtraSetupsPerEpisode; ++i) {
      const std::int64_t t0 = now_ns();
      auto sim = make_sim(args.seed);
      sim->set_thread_pool(&pool);
      setup_s.push_back(seconds_since(t0));
    }
  };

  if (args.trace) {
    const Episode plain = run_episode(args.seed, dt, pool, nullptr);
    Tracer tr;
    Episode traced;
    std::vector<double> serial_us, pooled_us, fork_us;
    {
      Tracer::Scope root(&tr, "bench.traced_run", "harness", args.workload);
      traced = run_episode(args.seed, dt, pool, &tr);
      decomposed_replay(*traced.sim, dt, tr, result);
      const swm::State& s = traced.sim->parent();
      swm::Tendency tend(s.grid);
      const swm::ModelParams params = model_params();
      for (int i = 0; i < 20; ++i) {
        serial_us.push_back(timed_us(tr, "swm.tendency_serial", "swm", [&] {
          swm::compute_tendency(s, params, tend);
        }));
        pooled_us.push_back(timed_us(tr, "swm.tendency_pooled", "swm", [&] {
          swm::compute_tendency(s, params, tend, &pool, 0);
        }));
      }
      for (int i = 0; i < 200; ++i)
        fork_us.push_back(timed_us(tr, "util.parallel_for", "util", [&] {
          util::parallel_for(pool, threads, [](int) {});
        }));
    }
    const auto ref = serial_reference(args.seed, dt);
    if (!bit_identical(*plain.sim, *ref))
      result.fail("untraced episode differs from the serial integration");
    const bool traced_ok = bit_identical(*traced.sim, *ref);
    if (!traced_ok)
      result.fail("traced episode differs from the serial integration");
    if (traced.nonfinite_steps > 0)
      result.fail("traced episode left a non-finite state");
    result.attempted = kEpisodeSteps;
    result.failed = traced.nonfinite_steps + (traced_ok ? 0 : kEpisodeSteps);

    const double parent_cells = static_cast<double>(kParentCells) * kParentCells;
    const double sum_plain =
        std::accumulate(plain.step_ms.begin(), plain.step_ms.end(), 0.0);
    const double sum_traced =
        std::accumulate(traced.step_ms.begin(), traced.step_ms.end(), 0.0);
    // Per cell and RK3 step, hand-counted from swm/dynamics.cpp's fused
    // nonlinear-viscous kernels: mass 20 + u 35 + v 35 flops per stage.
    constexpr double kFlopsPerCellStage = 20.0 + 35.0 + 35.0;
    const swm::State& p = traced.sim->parent();
    // Per stage each cell reads the evaluated h/u/v, terrain and the RK
    // base h/u/v, and writes h/u/v: ten arrays, sized as allocated.
    const double stage_bytes =
        static_cast<double>(3 * p.h.raw().size() + 3 * p.u.raw().size() +
                            3 * p.v.raw().size() + p.b.raw().size()) *
        sizeof(double);
    result.set("nest.advance_ms_p50", percentile(traced.step_ms, 50));
    result.set("swm.tendency_mcells_per_s_serial",
               parent_cells / percentile(serial_us, 50));
    result.set("swm.tendency_mcells_per_s_pooled",
               parent_cells / percentile(pooled_us, 50));
    result.set("swm.flops_per_cell", 3.0 * kFlopsPerCellStage);
    result.set("swm.bytes_per_cell", 3.0 * stage_bytes / parent_cells);
    result.set("util.parallel_for_us", percentile(fork_us, 50));
    result.set("nest.construct_ms", traced.setup_s * 1e3);
    result.set("nest.working_set_mb", working_set_mb(*traced.sim));
    const double plain_cpu_rate = median(window_steps_per_s(plain.step_cpu_ms));
    result.set("clock.cpu_units_per_s", plain_cpu_rate);
    result.set("clock.cpu_ms_per_unit", 1e3 / plain_cpu_rate);
    result.set("clock.wall_units_per_s", median(window_steps_per_s(plain.step_ms)));
    result.set("clock.wall_ms_per_unit", percentile(plain.step_ms, 50));
    result.set("trace.overhead_frac", (sum_traced - sum_plain) / sum_plain);
    std::cout << "  swm.flops_per_cell and swm.bytes_per_cell are computed "
                 "(kernel op count, allocated array sizes), not measured\n"
              << "  working set " << working_set_mb(*traced.sim)
              << " MB (computed) vs L2 " << l2 / 1024 << " KiB per core, L3 "
              << l3 / (1024 * 1024) << " MiB\n";
    finish_trace(tr, args, result);
    return;
  }

  // Timed phase: episodes until the time is up, at least two.
  std::vector<double> step_ms, step_cpu_ms;
  std::vector<std::uint64_t> digests;
  std::unique_ptr<nest::NestedSimulation> last;
  long long nonfinite = 0;
  const std::int64_t t_start = now_ns();
  while (digests.size() < 2 || seconds_since(t_start) < args.seconds) {
    last.reset();
    extra_setups();
    Episode e = run_episode(args.seed, dt, pool, nullptr);
    setup_s.push_back(e.setup_s);
    step_ms.insert(step_ms.end(), e.step_ms.begin(), e.step_ms.end());
    step_cpu_ms.insert(step_cpu_ms.end(), e.step_cpu_ms.begin(), e.step_cpu_ms.end());
    nonfinite += e.nonfinite_steps;
    digests.push_back(digest(*e.sim));
    last = std::move(e.sim);
  }
  const double rss = peak_rss_mb();
  const double ws = working_set_mb(*last);

  // Correctness, outside the timed region: every episode's final state
  // equals one serial integration without a pool, bit for bit.
  const auto ref = serial_reference(args.seed, dt);
  long long failed = nonfinite;
  if (nonfinite > 0)
    result.fail(std::to_string(nonfinite) + " step(s) left a non-finite state");
  if (!bit_identical(*last, *ref))
    result.fail("final state differs from the serial integration");
  const std::uint64_t ref_digest = digest(*ref);
  for (std::size_t i = 0; i < digests.size(); ++i) {
    if (digests[i] == ref_digest) continue;
    failed += kEpisodeSteps;
    result.fail("episode " + std::to_string(i) +
                " final state differs from the serial integration");
  }
  result.attempted = static_cast<long long>(step_ms.size());
  result.failed = failed;

  const std::vector<double> cpu_rates = window_steps_per_s(step_cpu_ms);
  const double steps_per_cpu_s = median(cpu_rates);
  const double steps_per_s = median(window_steps_per_s(step_ms));
  const double p50 = percentile(step_ms, 50);
  const double p95 = percentile(step_ms, 95);
  std::size_t beyond_p95 = 0;
  for (double v : step_ms) beyond_p95 += v > p95;
  result.set("setup_s", median(setup_s));
  result.set("units_per_s", steps_per_cpu_s);
  result.set("ms_per_unit", 1e3 / steps_per_cpu_s);
  result.set("peak_rss_mb", rss);

  std::cout << "end-to-end (" << digests.size() << " episodes of "
            << kEpisodeSteps << " steps):\n";
  report_line("setup_s", median(setup_s), "s", setup_s.size(), "median");
  const std::string windows =
      "median over " + std::to_string(cpu_rates.size()) + " windows of " +
      std::to_string(kWindowSteps) + " steps";
  report_line("steps_per_cpu_s", steps_per_cpu_s, "1/s", step_ms.size(),
              "= units_per_s; " + windows);
  report_line("cpu_ms_per_step", 1e3 / steps_per_cpu_s, "ms", step_ms.size(),
              "= ms_per_unit; " + windows);
  report_line("steps_per_s", steps_per_s, "1/s", step_ms.size(),
              "wall clock, not gated; " + windows);
  report_line("mcell_steps_per_s", steps_per_s * cells_per_step() * 1e-6,
              "Mcell/s", step_ms.size(), "wall clock, not gated; " + windows);
  report_line("step_ms_p50", p50, "ms", step_ms.size(), "wall clock, not gated");
  report_line("step_ms_p95", p95, "ms", step_ms.size(),
              "wall clock, not gated; " + std::to_string(beyond_p95) +
                  " samples beyond p95");
  report_line("peak_rss_mb", rss, "MB", 1);
  std::cout << "  working set " << ws << " MB (computed) vs L2 " << l2 / 1024
            << " KiB per core, L3 " << l3 / (1024 * 1024) << " MiB\n";
}

}  // namespace perfbench
