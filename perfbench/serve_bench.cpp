/// \file serve_bench.cpp
/// serve_steady and serve_spill: full spool drains through nestwx-serve's
/// public pieces (Spool, parse_request, CampaignServer::execute,
/// outcome_to_json, report_to_json), and the traced replay that splits
/// one drain into its layers.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>

#include "campaign/campaign.hpp"
#include "campaign/space_share.hpp"
#include "common.hpp"
#include "core/perf_model.hpp"
#include "iosim/plan_store.hpp"
#include "netsim/phase.hpp"
#include "procgrid/decomp.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "serve/sharded_cache.hpp"
#include "serve/spool.hpp"
#include "util/rng.hpp"
#include "workload/configs.hpp"
#include "workload/machines.hpp"
#include "wrfsim/driver.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace nestwx;

namespace {

struct ServeShape {
  double mean_gap = 15.0;          ///< virtual seconds between arrivals
  std::size_t shard_capacity = 0;  ///< ready plans per shard, 0 = unbounded
  bool spill = false;
};

ServeShape shape_of(const std::string& workload) {
  if (workload == "serve_spill") return ServeShape{8.0, 8, true};
  return ServeShape{15.0, 0, false};
}

constexpr int kRequestsPerSpool = 200;
constexpr int kCores = 4096;
/// Distinct spools per run. One 200-request spool's host cost depends on
/// its request mix; pooling several spools per seed keeps the run-to-run
/// spread of the end-to-end metrics inside their bounds.
constexpr int kSpoolsPerRun = 6;
/// Set-ups timed on their own before every drain, on top of the drain's.
constexpr int kExtraSetupsPerDrain = 2;
/// Executor threads of the drains. Two, not nproc: when the host steals
/// a virtual CPU, the other executor threads spin on the pool's yield
/// loop, so at four threads even a drain's CPU time follows the steal
/// rate (see perfbench/README.md).
constexpr int kServeThreads = 2;

topo::MachineParams bench_machine() { return workload::bluegene_p(kCores); }

serve::ServeOptions serve_options(const ServeShape& shape, int threads,
                                  const std::string& spill_dir) {
  serve::ServeOptions o;
  o.threads = threads;
  o.queue_depth = 16;
  o.aging_rate = 0.01;
  o.cache.shards = 4;
  o.cache.shard_capacity = shape.shard_capacity;
  o.cache.spill_dir = shape.spill ? spill_dir : "";
  return o;
}

/// One spool's generated inputs.
struct SpoolInput {
  std::uint64_t seed = 0;
  std::vector<std::string> names;
  std::vector<std::string> texts;
};

SpoolInput make_input(std::uint64_t seed, const ServeShape& shape,
                      Result& result) {
  SpoolInput in;
  in.seed = seed;
  for (const serve::Request& r :
       serve::generate_requests(seed, kRequestsPerSpool, shape.mean_gap)) {
    const std::string text = serve::to_json(r);
    bool ok = false;
    try {
      ok = serve::to_json(serve::parse_request(text, r.id)) == text;
    } catch (const serve::RequestParseError&) {
    }
    if (!ok) result.fail("request " + r.id + " does not round-trip");
    in.names.push_back(r.id);
    in.texts.push_back(text + "\n");
  }
  return in;
}

/// Everything one drain produced.
struct Drain {
  double setup_s = 0.0;
  double drain_s = 0.0;
  double drain_cpu_s = 0.0;  ///< process CPU seconds over the same span
  std::string report;  ///< merged report bytes
  serve::ServeReport served;
  std::shared_ptr<const core::PerfModel> model;
  std::vector<std::string> outcome_json;
  std::size_t claimed = 0;
  long long failed = 0;  ///< parse/retire failures, quarantined, timed out
  std::size_t served_requests() const {
    return served.metrics.completed + served.metrics.coalesced;
  }
  std::size_t members_executed() const {
    std::size_t n = 0;
    for (const auto& o : served.outcomes)
      if (o.executed) n += static_cast<std::size_t>(o.campaign.members);
    return n;
  }
};

/// A server ready to drain: what nestwx-serve builds before its first
/// claim.
struct ReadyServer {
  topo::MachineParams machine;
  std::shared_ptr<const core::PerfModel> model;
  serve::ServeOptions options;
  std::unique_ptr<serve::CampaignServer> server;
  std::unique_ptr<serve::Spool> spool;
  double setup_s = 0.0;
};

/// Profile the basis, fit the model, build the server and open the
/// spool, timed as the benchmark's set-up.
ReadyServer set_up(const std::string& dir, const ServeShape& shape,
                   int threads, Tracer* tr) {
  ReadyServer r;
  const std::int64_t t0 = now_ns();
  r.machine = bench_machine();
  std::vector<core::ProfilePoint> basis;
  {
    Tracer::Scope s(tr, "wrfsim.profile_basis", "wrfsim");
    basis = wrfsim::profile_basis(r.machine, core::default_basis_domains());
  }
  {
    Tracer::Scope s(tr, "core.model_fit", "core");
    r.model = std::make_shared<core::DelaunayPerfModel>(
        core::DelaunayPerfModel::fit(basis));
  }
  r.options = serve_options(shape, threads, dir + "/spill");
  {
    Tracer::Scope s(tr, "serve.server_construct", "serve");
    r.server = std::make_unique<serve::CampaignServer>(r.machine, r.model,
                                                       r.options);
  }
  {
    Tracer::Scope s(tr, "serve.spool.open", "serve");
    r.spool = std::make_unique<serve::Spool>(dir + "/spool");
    r.spool->recover();
  }
  r.setup_s = seconds_since(t0);
  return r;
}

/// Set up a server and drain one spool end to end, as nestwx-serve does.
/// The timed drain runs from the first claim to the merged report on disk.
Drain drain_spool(const SpoolInput& in, const ServeShape& shape, int threads,
                  const std::string& dir, Tracer* tr) {
  fs::remove_all(dir);
  const std::string spool_dir = dir + "/spool";
  fs::create_directories(spool_dir);
  for (std::size_t i = 0; i < in.names.size(); ++i) {
    Tracer::Scope s(tr, "serve.spool.submit", "serve", in.names[i]);
    serve::Spool::submit(spool_dir, in.names[i], in.texts[i]);
  }

  Drain d;
  ReadyServer ready = set_up(dir, shape, threads, tr);
  d.setup_s = ready.setup_s;
  d.model = ready.model;
  const topo::MachineParams& machine = ready.machine;
  const serve::ServeOptions& options = ready.options;
  serve::CampaignServer* server = ready.server.get();
  serve::Spool* spool = ready.spool.get();

  const std::int64_t t1 = now_ns();
  const double cpu1 = cpu_now_s();
  std::vector<serve::ClaimedRequest> claimed;
  {
    Tracer::Scope s(tr, "serve.spool.claim", "serve");
    claimed = spool->claim_pending();
  }
  d.claimed = claimed.size();
  std::vector<serve::Request> requests;
  std::vector<const serve::ClaimedRequest*> sources;
  for (const auto& file : claimed) {
    Tracer::Scope s(tr, "serve.request.parse", "serve", file.name);
    try {
      requests.push_back(serve::parse_request(file.text, file.name));
      sources.push_back(&file);
    } catch (const serve::RequestParseError& e) {
      spool->reject(file, e.what());
      ++d.failed;
    }
  }
  {
    Tracer::Scope s(tr, "serve.execute", "serve");
    d.served = server->execute(requests);
  }
  for (std::size_t i = 0; i < sources.size(); ++i) {
    std::string json;
    {
      Tracer::Scope s(tr, "serve.outcome_json", "serve", sources[i]->name);
      json = serve::outcome_to_json(d.served.outcomes[i]) + "\n";
    }
    Tracer::Scope s(tr, "serve.spool.retire", "serve", sources[i]->name);
    try {
      spool->complete(*sources[i], json);
    } catch (const serve::SpoolError&) {
      ++d.failed;
    }
    d.outcome_json.push_back(std::move(json));
  }
  {
    Tracer::Scope s(tr, "serve.report_json", "serve");
    d.report = serve::report_to_json(d.served, machine, options);
  }
  {
    Tracer::Scope s(tr, "serve.report_write", "serve");
    std::ofstream out(dir + "/report.json", std::ios::trunc);
    out << d.report;
    if (!out) ++d.failed;
  }
  d.drain_s = seconds_since(t1);
  d.drain_cpu_s = cpu_now_s() - cpu1;

  for (const auto& o : d.served.outcomes)
    if (o.status == serve::OutcomeStatus::quarantined ||
        o.status == serve::OutcomeStatus::timed_out)
      ++d.failed;
  return d;
}

void print_drain(const Drain& d, std::uint64_t seed) {
  const serve::ServeMetrics& m = d.served.metrics;
  const serve::ShardedCacheStats& c = d.served.cache;
  std::cout << "  spool seed " << seed << ": " << m.submitted << " submitted, "
            << m.completed << " completed, " << m.coalesced << " coalesced, "
            << m.rejected << " rejected, " << m.evicted << " evicted; "
            << d.members_executed() << " members; cache " << c.total.hits
            << " hit / " << c.total.misses << " miss, " << c.total.evictions
            << " evicted, " << c.spills << " spilled, " << c.reloads
            << " reloaded; virtual makespan " << m.drain_makespan
            << " s, wait p99 " << m.wait_p99 << " s, utilization "
            << m.utilization << "\n";
}

// --- Traced replay ---------------------------------------------------------

/// PerfModel decorator: counts predictions made through it.
class CountingModel final : public core::PerfModel {
 public:
  explicit CountingModel(std::shared_ptr<const core::PerfModel> inner)
      : inner_(std::move(inner)) {}
  double predict(int nx, int ny) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_->predict(nx, ny);
  }
  std::size_t calls() const { return calls_.load(); }

 private:
  std::shared_ptr<const core::PerfModel> inner_;
  mutable std::atomic<std::size_t> calls_{0};
};

/// PlanCacheBase decorator over a ShardedPlanCache: times each lookup
/// apart from the plan computation it may run, classifies it as hit,
/// computed miss or disk reload, and remembers the plans it handed out
/// and the ones trim() evicted. Single-threaded use only (the replay runs
/// campaigns at one thread, so every call lands on the harness thread).
class TracedCache final : public campaign::PlanCacheBase {
 public:
  TracedCache(serve::ShardedPlanCache::Options options, Tracer* tr)
      : inner_(std::move(options)), tr_(tr) {}

  PlanPtr get_or_compute(std::uint64_t key, std::uint64_t stamp,
                         const Compute& compute) override {
    const bool resident = inner_.peek(key) != nullptr;
    bool computed = false;
    std::int64_t compute_ns = 0;
    Tracer::Scope s(tr_, "cache.get", "cache", key_name(key));
    const std::int64_t t0 = now_ns();
    PlanPtr plan = inner_.get_or_compute(key, stamp, [&] {
      Tracer::Scope c(tr_, "core.plan_execution", "core", key_name(key));
      computed = true;
      const std::int64_t c0 = now_ns();
      core::ExecutionPlan p = compute();
      compute_ns = now_ns() - c0;
      return p;
    });
    const std::int64_t total = now_ns() - t0;
    get_us.push_back(static_cast<double>(total - compute_ns) * 1e-3);
    ++lookups;
    if (resident) {
      ++hits;
    } else if (computed) {
      ++computes;
      plan_us.push_back(static_cast<double>(compute_ns) * 1e-3);
    } else {
      ++reloads;
    }
    by_stamp[stamp] = plan;
    resident_[key] = plan;
    return plan;
  }
  using campaign::PlanCacheBase::get_or_compute;

  PlanPtr peek(std::uint64_t key) const override { return inner_.peek(key); }
  std::uint64_t reserve_stamps(std::uint64_t n) override {
    last_stamp_base = inner_.reserve_stamps(n);
    return last_stamp_base;
  }
  void set_capacity(std::size_t capacity) override {
    inner_.set_capacity(capacity);
  }
  std::size_t trim() override {
    Tracer::Scope s(tr_, "cache.trim", "cache");
    const std::int64_t t0 = now_ns();
    const std::size_t n = inner_.trim();
    trim_ms += static_cast<double>(now_ns() - t0) * 1e-6;
    evictions += n;
    if (n > 0) {
      for (auto it = resident_.begin(); it != resident_.end();) {
        if (inner_.peek(it->first) == nullptr) {
          evicted.emplace_back(it->first, it->second);
          it = resident_.erase(it);
        } else {
          ++it;
        }
      }
    }
    return n;
  }
  campaign::PlanCacheStats stats() const override { return inner_.stats(); }
  void clear() override { inner_.clear(); }
  serve::ShardedCacheStats sharded_stats() const {
    return inner_.sharded_stats();
  }

  std::size_t lookups = 0, hits = 0, computes = 0, reloads = 0;
  std::size_t evictions = 0;
  double trim_ms = 0.0;
  std::vector<double> get_us;
  std::vector<double> plan_us;
  std::uint64_t last_stamp_base = 0;
  std::map<std::uint64_t, PlanPtr> by_stamp;
  std::vector<std::pair<std::uint64_t, PlanPtr>> evicted;  ///< drained by caller

 private:
  static std::string key_name(std::uint64_t key) {
    std::ostringstream os;
    os << "plan-" << std::hex << key;
    return os.str();
  }
  serve::ShardedPlanCache inner_;
  Tracer* tr_;
  std::map<std::uint64_t, PlanPtr> resident_;
};

/// The campaign members a request expands to, exactly as
/// CampaignServer::execute builds them: an ensemble is a pure function of
/// (seed, members).
std::vector<campaign::MemberSpec> members_of(const serve::RequestOutcome& out) {
  const serve::Request& r = out.request;
  util::Rng rng(r.seed);
  const auto configs = workload::random_configs(rng, out.members);
  std::vector<campaign::MemberSpec> members;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    campaign::MemberSpec spec;
    spec.name = "m";
    spec.name += std::to_string(i);
    spec.config = configs[i];
    spec.iterations = r.iterations;
    spec.strategy = r.strategy;
    spec.allocator = r.allocator;
    spec.scheme = r.scheme;
    members.push_back(std::move(spec));
  }
  return members;
}

/// The parent domain's halo phase of one plan, as global-rank messages.
std::vector<netsim::Message> parent_halo_phase(
    const netsim::PhaseSimulator& sim, const core::NestedConfig& config,
    const core::ExecutionPlan& plan) {
  const procgrid::Grid2D& grid = plan.parent_grid;
  const procgrid::Grid2D local(std::min(grid.px(), config.parent.nx),
                               std::min(grid.py(), config.parent.ny));
  const procgrid::Decomposition dec(config.parent.nx, config.parent.ny, local);
  std::vector<netsim::Message> msgs;
  for (const auto& h : dec.halo_messages(sim.machine().halo_width)) {
    msgs.push_back(netsim::Message{
        grid.rank(local.x_of(h.src_rank), local.y_of(h.src_rank)),
        grid.rank(local.x_of(h.dst_rank), local.y_of(h.dst_rank)),
        sim.halo_message_bytes(h.elements)});
  }
  return msgs;
}

std::size_t count_status(const std::vector<std::string>& outcome_json,
                         const std::string& status) {
  const std::string needle = "\"status\": \"" + status + "\"";
  std::size_t n = 0;
  for (const auto& j : outcome_json) n += j.find(needle) != std::string::npos;
  return n;
}

template <typename T>
void expect_equal(Result& result, const std::string& what, T replay, T drain) {
  if (replay == drain) return;
  std::ostringstream os;
  os << "replay " << what << " " << replay << " != drain " << drain;
  result.fail(os.str());
}

/// Replay the drain's executed campaigns, in service order, through the
/// public layer entry points, with spans around every call.
void replay(const Drain& drain, const ServeShape& shape,
            const std::string& dir, Tracer& tr, Result& result) {
  const topo::MachineParams machine = bench_machine();
  const serve::ServeOptions options =
      serve_options(shape, 1, dir + "/replay_spill");
  fs::create_directories(dir + "/replay_store");
  auto model = std::make_shared<CountingModel>(drain.model);
  auto cache = std::make_shared<TracedCache>(options.cache, &tr);
  campaign::CampaignScheduler scheduler(machine, model, cache);

  std::vector<const serve::RequestOutcome*> executed;
  for (const auto& o : drain.served.outcomes)
    if (o.executed) executed.push_back(&o);
  std::sort(executed.begin(), executed.end(),
            [](const auto* a, const auto* b) { return a->start < b->start; });

  std::vector<double> run_ms, share_us, sim_us, phase_us, save_us, load_us;
  std::vector<double> messages, hops, link_flows, ns_per_hop, file_bytes;
  std::size_t members_executed = 0;
  for (const serve::RequestOutcome* out : executed) {
    const serve::Request& r = out->request;
    Tracer::Scope request_span(&tr, "serve.campaign_replay", "harness", r.id);
    const auto members = members_of(*out);
    campaign::CampaignOptions copt;
    copt.threads = 1;
    copt.sharing = r.sharing;
    copt.max_concurrent = r.max_concurrent;
    copt.use_plan_cache = true;
    copt.run = options.run;
    campaign::CampaignReport rep;
    {
      Tracer::Scope s(&tr, "campaign.run", "campaign", r.id);
      const std::int64_t t0 = now_ns();
      rep = scheduler.run(members, copt);
      run_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    }
    const std::uint64_t stamp_base = cache->last_stamp_base;
    members_executed += members.size();
    if (rep.metrics.makespan != out->campaign.makespan ||
        rep.metrics.cache_hits != out->campaign.cache_hits ||
        rep.metrics.cache_misses != out->campaign.cache_misses)
      result.fail("replayed campaign " + r.id + " differs from the drain");

    // Second-level sharing: one share_machine per wave, as the scheduler
    // does; the rectangles must match the ones the campaign reported.
    std::vector<campaign::SubMachine> subs(members.size());
    std::map<int, std::vector<std::size_t>> waves;
    for (std::size_t i = 0; i < rep.members.size(); ++i)
      waves[rep.members[i].wave].push_back(i);
    for (const auto& [wave, idx] : waves) {
      if (r.sharing == campaign::Sharing::time) {
        for (std::size_t i : idx) subs[i] = campaign::SubMachine{
            procgrid::Rect{0, 0, machine.torus_x, machine.torus_y}, machine};
        continue;
      }
      std::vector<double> weights;
      for (std::size_t i : idx)
        weights.push_back(campaign::predicted_run_weight(
            members[i].config, *drain.model, members[i].iterations));
      Tracer::Scope s(&tr, "campaign.share_machine", "campaign", r.id);
      const std::int64_t t0 = now_ns();
      auto shared = campaign::share_machine(machine, weights);
      share_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      for (std::size_t j = 0; j < idx.size(); ++j)
        subs[idx[j]] = std::move(shared[j]);
    }

    for (std::size_t i = 0; i < members.size(); ++i) {
      if (!(subs[i].rect == rep.members[i].rect))
        result.fail("replayed share of " + r.id + " differs from the drain");
      const auto plan_it = cache->by_stamp.find(stamp_base + i);
      if (plan_it == cache->by_stamp.end()) {
        result.fail("no plan recorded for " + r.id);
        continue;
      }
      const core::ExecutionPlan& plan = *plan_it->second;
      wrfsim::RunResult run;
      {
        Tracer::Scope s(&tr, "wrfsim.simulate_run", "wrfsim", r.id);
        const std::int64_t t0 = now_ns();
        run = wrfsim::simulate_run(subs[i].machine, members[i].config, plan,
                                   options.run);
        sim_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      }
      if (run.total != rep.members[i].run.total)
        result.fail("replayed simulate_run of " + r.id + " differs");

      const netsim::PhaseSimulator sim(subs[i].machine);
      std::vector<netsim::Message> msgs;
      {
        Tracer::Scope s(&tr, "procgrid.halo_messages", "procgrid", r.id);
        msgs = parent_halo_phase(sim, members[i].config, plan);
      }
      Tracer::Scope s(&tr, "netsim.phase_run", "netsim", r.id);
      const std::int64_t t0 = now_ns();
      const netsim::PhaseStats stats = sim.run(*plan.mapping, msgs);
      const double ns = static_cast<double>(now_ns() - t0);
      phase_us.push_back(ns * 1e-3);
      const double phase_hops = stats.avg_hops * static_cast<double>(msgs.size());
      messages.push_back(static_cast<double>(msgs.size()));
      hops.push_back(phase_hops);
      link_flows.push_back(stats.max_link_flows);
      if (phase_hops > 0.0) ns_per_hop.push_back(ns / phase_hops);
    }

    // Plans this campaign's trim evicted: the disk tier wrote each one;
    // time the plan store's own save and load on them.
    for (const auto& [key, plan] : cache->evicted) {
      if (!shape.spill) break;
      const std::string path = iosim::plan_store_path(dir + "/replay_store", key);
      {
        Tracer::Scope s(&tr, "iosim.save_plan", "iosim", r.id);
        const std::int64_t t0 = now_ns();
        iosim::save_plan(*plan, key, path);
        save_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      }
      file_bytes.push_back(static_cast<double>(fs::file_size(path)));
      Tracer::Scope s(&tr, "iosim.load_plan", "iosim", r.id);
      const std::int64_t t0 = now_ns();
      (void)iosim::load_plan(path, key);
      load_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    }
    cache->evicted.clear();
  }

  // Self-test: the replay did exactly the drain's work.
  const serve::ServeMetrics& m = drain.served.metrics;
  const serve::ShardedCacheStats& c = drain.served.cache;
  const serve::ShardedCacheStats rc = cache->sharded_stats();
  expect_equal(result, "completed", executed.size(), m.completed);
  // Retired responses cover the claimed requests; re-plans the drain
  // synthesised have no spool file, so serialise those here.
  std::vector<std::string> responses = drain.outcome_json;
  for (std::size_t i = responses.size(); i < drain.served.outcomes.size(); ++i)
    responses.push_back(serve::outcome_to_json(drain.served.outcomes[i]));
  expect_equal(result, "coalesced", count_status(responses, "coalesced"),
               m.coalesced);
  expect_equal(result, "cache hits", cache->hits, c.total.hits);
  expect_equal(result, "cache misses", cache->computes + cache->reloads,
               c.total.misses);
  expect_equal(result, "evictions", cache->evictions, c.total.evictions);
  expect_equal(result, "spills", rc.spills, c.spills);
  expect_equal(result, "spilled plans seen",
               shape.spill ? cache->evictions : std::size_t{0}, c.spills);
  expect_equal(result, "reloads", cache->reloads, c.reloads);
  expect_equal(result, "resident plans", rc.total.size, c.total.size);
  std::cout << "  replay == drain: " << executed.size() << " completed, "
            << m.coalesced << " coalesced, " << cache->hits << " hits, "
            << cache->computes + cache->reloads << " misses, "
            << cache->evictions << " evictions, " << rc.spills << " spills, "
            << cache->reloads << " reloads\n";

  const double plan_p50 = percentile(cache->plan_us, 50);
  const double load_p50 = percentile(load_us, 50);
  result.set("campaign.run_ms_p50", percentile(run_ms, 50));
  result.set("campaign.run_ms_p95", percentile(run_ms, 95));
  result.set("campaign.share_us_p50", percentile(share_us, 50));
  result.set("campaign.members_executed", static_cast<double>(members_executed));
  result.set("core.plan_execution_us_p50", plan_p50);
  result.set("core.plan_execution_us_p95", percentile(cache->plan_us, 95));
  result.set("core.plan_calls", static_cast<double>(cache->plan_us.size()));
  result.set("core.predict_calls", static_cast<double>(model->calls()));
  result.set("wrfsim.simulate_run_us_p50", percentile(sim_us, 50));
  result.set("wrfsim.simulate_run_us_p95", percentile(sim_us, 95));
  result.set("wrfsim.simulate_run_calls", static_cast<double>(sim_us.size()));
  result.set("netsim.phase_run_us_p50", percentile(phase_us, 50));
  result.set("netsim.messages_per_phase", percentile(messages, 50));
  result.set("netsim.hops_per_phase", percentile(hops, 50));
  result.set("netsim.max_link_flows", percentile(link_flows, 50));
  result.set("netsim.ns_per_hop", percentile(ns_per_hop, 50));
  result.set("cache.lookups", static_cast<double>(cache->lookups));
  result.set("cache.hit_ratio",
             cache->lookups ? static_cast<double>(cache->hits) / cache->lookups : 0.0);
  result.set("cache.get_us_p50", percentile(cache->get_us, 50));
  result.set("cache.evictions", static_cast<double>(cache->evictions));
  result.set("cache.trim_ms", cache->trim_ms);
  result.set("cache.resident_plans", static_cast<double>(rc.total.size));
  result.set("iosim.spills", static_cast<double>(rc.spills));
  result.set("iosim.reloads", static_cast<double>(rc.reloads));
  result.set("iosim.save_plan_us_p50", percentile(save_us, 50));
  result.set("iosim.load_plan_us_p50", load_p50);
  result.set("iosim.plan_file_bytes", percentile(file_bytes, 50));
  result.set("iosim.reload_over_replan", plan_p50 > 0.0 ? load_p50 / plan_p50 : 0.0);
  std::cout << "  cache hit ratio base: " << cache->lookups
            << " lookups; reload_over_replan base: load_plan p50 over "
            << load_us.size() << " loads / plan_execution p50 over "
            << cache->plan_us.size() << " plans\n";
}

}  // namespace

void run_serve(const Args& args, Result& result) {
  const ServeShape shape = shape_of(args.workload);
  const int threads = bench_threads(kServeThreads);
  std::cout << args.workload << ": BG/P " << kCores << " cores, "
            << kSpoolsPerRun << " spool(s) x " << kRequestsPerSpool
            << " requests, mean gap " << shape.mean_gap << " s, queue depth 16,"
            << " aging 0.01, 4 shards, shard capacity "
            << (shape.shard_capacity ? std::to_string(shape.shard_capacity)
                                     : std::string("unbounded"))
            << (shape.spill ? ", spill on" : ", no spill") << ", " << threads
            << " thread(s)\n";

  std::vector<SpoolInput> inputs;
  for (int k = 0; k < kSpoolsPerRun; ++k)
    inputs.push_back(make_input(args.seed * 1000 + k, shape, result));

  // One untimed drain first: the first drains of a process run measurably
  // slower (allocator, page cache, thread start-up), and a long-running
  // service pays that once.
  drain_spool(inputs[0], shape, threads, args.work_dir + "/warmup", nullptr);

  if (args.trace) {
    const SpoolInput& in = inputs[0];
    // Untraced drain of the same spool first: the difference to the
    // traced drain is the tracing overhead.
    const Drain plain = drain_spool(in, shape, threads, args.work_dir + "/plain", nullptr);
    Tracer tr;
    Drain d;
    {
      Tracer::Scope root(&tr, "bench.traced_run", "harness", args.workload);
      d = drain_spool(in, shape, threads, args.work_dir + "/traced", &tr);
      replay(d, shape, args.work_dir + "/traced", tr, result);
    }
    print_drain(d, in.seed);
    const Drain ref = drain_spool(in, shape, 1, args.work_dir + "/ref", nullptr);
    if (plain.report != ref.report)
      result.fail("untraced drain report differs from the 1-thread drain");
    if (d.report != ref.report)
      result.fail("traced drain report differs from the 1-thread drain");
    result.attempted = static_cast<long long>(d.claimed);
    result.failed =
        d.failed + (d.report == ref.report ? 0 : static_cast<long long>(d.claimed));
    const serve::ServeMetrics& m = d.served.metrics;
    const auto us = [&](const char* name) { return tr.durations_us(name); };
    const auto claim = us("serve.spool.claim");
    result.set("serve.spool.submit_us_p50", percentile(us("serve.spool.submit"), 50));
    result.set("serve.spool.claim_us_p50",
               d.claimed ? claim.front() / static_cast<double>(d.claimed) : 0.0);
    result.set("serve.spool.retire_us_p50", percentile(us("serve.spool.retire"), 50));
    result.set("serve.request.parse_us_p50", percentile(us("serve.request.parse"), 50));
    result.set("serve.outcome_json_us_p50", percentile(us("serve.outcome_json"), 50));
    result.set("serve.report_json_ms", us("serve.report_json").front() * 1e-3);
    result.set("serve.report_bytes", static_cast<double>(d.report.size()));
    result.set("serve.execute_s", us("serve.execute").front() * 1e-6);
    result.set("serve.executed_campaigns", static_cast<double>(m.completed));
    result.set("serve.served_frac",
               static_cast<double>(d.served_requests()) / m.submitted);
    result.set("serve.dedup_ratio",
               d.served_requests() ? static_cast<double>(m.coalesced) / d.served_requests() : 0.0);
    result.set("serve.virtual_makespan_s", m.drain_makespan);
    result.set("serve.virtual_wait_p99_s", m.wait_p99);
    result.set("wrfsim.profile_basis_ms", us("wrfsim.profile_basis").front() * 1e-3);
    result.set("core.model_fit_ms", us("core.model_fit").front() * 1e-3);
    const double plain_members = static_cast<double>(plain.members_executed());
    const double plain_served = static_cast<double>(plain.served_requests());
    result.set("clock.cpu_units_per_s", plain_served / plain.drain_cpu_s);
    result.set("clock.cpu_ms_per_unit", 1e3 * plain.drain_cpu_s / plain_members);
    result.set("clock.wall_units_per_s", plain_served / plain.drain_s);
    result.set("clock.wall_ms_per_unit", 1e3 * plain.drain_s / plain_members);
    result.set("trace.overhead_frac", (d.drain_s - plain.drain_s) / plain.drain_s);
    std::cout << "  serve.spool.claim_us_p50 is the batch claim over "
              << d.claimed << " files; overhead base: untraced drain "
              << plain.drain_s << " s, traced drain " << d.drain_s << " s\n";
    finish_trace(tr, args, result);
    return;
  }

  // Timed phase: cycle through the spools until the time is up. Every
  // spool is drained once and the first one at least twice, so repeats
  // are compared too.
  std::vector<std::vector<double>> drain_s(inputs.size());
  std::vector<std::vector<double>> drain_cpu_s(inputs.size());
  std::vector<std::vector<std::string>> reports(inputs.size());
  std::vector<std::vector<long long>> drain_requests(inputs.size());
  std::vector<Drain> first(inputs.size());
  std::vector<double> setup_s;
  long long failed = 0;
  const std::int64_t t_start = now_ns();
  for (std::size_t n = 0;
       n <= inputs.size() || seconds_since(t_start) < args.seconds; ++n) {
    const std::size_t k = n % inputs.size();
    // Set-up is short next to a drain: repeat it alone between drains,
    // so its median rests on samples spread over the whole run.
    for (int i = 0; i < kExtraSetupsPerDrain; ++i) {
      fs::remove_all(args.work_dir + "/setup");
      setup_s.push_back(
          set_up(args.work_dir + "/setup", shape, threads, nullptr).setup_s);
    }
    Drain d = drain_spool(inputs[k], shape, threads,
                          args.work_dir + "/spool" + std::to_string(k), nullptr);
    setup_s.push_back(d.setup_s);
    drain_s[k].push_back(d.drain_s);
    drain_cpu_s[k].push_back(d.drain_cpu_s);
    reports[k].push_back(d.report);
    drain_requests[k].push_back(static_cast<long long>(d.claimed));
    failed += d.failed;
    result.attempted += static_cast<long long>(d.claimed);
    if (n < inputs.size()) first[k] = std::move(d);
  }
  const double rss = peak_rss_mb();

  // Correctness, outside the timed region: every repeat's report bytes
  // equal one single-thread drain of the same spool.
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    const Drain ref = drain_spool(inputs[k], shape, 1,
                                  args.work_dir + "/ref" + std::to_string(k), nullptr);
    for (std::size_t i = 0; i < reports[k].size(); ++i) {
      if (reports[k][i] == ref.report) continue;
      failed += drain_requests[k][i];
      result.fail("spool seed " + std::to_string(inputs[k].seed) + " repeat " +
                  std::to_string(i) + ": report differs from the 1-thread drain");
    }
  }
  result.failed = failed;

  double host_s = 0.0, cpu_s = 0.0;
  std::size_t served = 0, members = 0, drains = 0;
  std::vector<double> makespans, waits;
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    print_drain(first[k], inputs[k].seed);
    std::cout << "    host drain s:";
    for (double v : drain_s[k]) std::cout << " " << v;
    std::cout << "\n    CPU drain s:";
    for (double v : drain_cpu_s[k]) std::cout << " " << v;
    std::cout << "\n";
    host_s += median(drain_s[k]);
    cpu_s += median(drain_cpu_s[k]);
    served += first[k].served_requests();
    members += first[k].members_executed();
    drains += drain_s[k].size();
    makespans.push_back(first[k].served.metrics.drain_makespan);
    waits.push_back(first[k].served.metrics.wait_p99);
  }
  const double requests_per_cpu_s = static_cast<double>(served) / cpu_s;
  const double cpu_ms_per_member = 1e3 * cpu_s / static_cast<double>(members);
  const double requests_per_s = static_cast<double>(served) / host_s;
  const double ms_per_member = 1e3 * host_s / static_cast<double>(members);
  result.set("setup_s", median(setup_s));
  result.set("units_per_s", requests_per_cpu_s);
  result.set("ms_per_unit", cpu_ms_per_member);
  result.set("peak_rss_mb", rss);

  std::cout << "end-to-end (first claim to merged report on disk; "
               "per-spool median over repeats, pooled over spools):\n";
  report_line("setup_s", median(setup_s), "s", setup_s.size(), "median");
  report_line("requests_per_cpu_s", requests_per_cpu_s, "req/s", drains,
              "= units_per_s; " + std::to_string(served) + " served");
  report_line("cpu_ms_per_member", cpu_ms_per_member, "ms", drains,
              "= ms_per_unit; " + std::to_string(members) + " members");
  report_line("requests_per_s", requests_per_s, "req/s", drains,
              "wall clock, not gated");
  report_line("ms_per_member", ms_per_member, "ms", drains,
              "wall clock, not gated");
  report_line("peak_rss_mb", rss, "MB", 1);
  report_line("virtual_makespan_s", median(makespans), "s", makespans.size(),
              "median over spools, deterministic");
  report_line("virtual_wait_p99_s", median(waits), "s", waits.size(),
              "median over spools, deterministic");
}

}  // namespace perfbench
