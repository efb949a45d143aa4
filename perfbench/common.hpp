#pragma once
/// \file common.hpp
/// Shared pieces of the nestwx benchmark harness: host clock, sample
/// statistics, the run result, and the span recorder of the traced run.
///
/// Everything here measures the program from outside: spans wrap the
/// harness's own calls into nestwx's public entry points, never code
/// inside src/.

#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Host nanoseconds on the monotonic clock.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// CPU seconds this process has run so far, summed over its threads.
/// Time the hypervisor steals from the host's virtual CPUs is not counted,
/// which is why the gated work metrics are CPU time: on a shared host,
/// the wall time of a drain swings by half from one run to the next with
/// the steal rate (see perfbench/README.md).
inline double cpu_now_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Linear-interpolated percentile (p in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> sample, double p);
double median(const std::vector<double>& sample);

/// Peak resident set size of this process so far, MB (getrusage).
double peak_rss_mb();

/// Worker threads of a pool the benchmark creates: the host's hardware
/// threads, capped at `cap`.
int bench_threads(int cap);

/// Command-line arguments (see main.cpp).
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;   ///< scratch directory (spools, spill files)
  std::string trace_out;  ///< Chrome trace JSON path of the traced run
};

/// What one run reports: correctness, attempted/failed work, and the
/// metrics by name. Human-readable lines go to stdout as the run goes.
struct Result {
  std::vector<std::string> failures;  ///< one line per failed check
  long long attempted = 0;
  long long failed = 0;
  std::map<std::string, double> metrics;

  void fail(const std::string& what) { failures.push_back(what); }
  void set(const std::string& name, double value) { metrics[name] = value; }
};

/// Print one metric line: name, value, unit and how many samples it
/// summarises.
void report_line(const std::string& name, double value,
                 const std::string& unit, std::size_t samples,
                 const std::string& note = "");

/// Span recorder for the traced run. Spans nest on one thread (the
/// traced run calls every layer from the harness thread), so a span's
/// children never overlap and its self time is its duration minus the
/// sum of its children's durations.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string layer;
    std::string key;  ///< request, campaign or step id shared by its spans
    std::int64_t start = 0;
    std::int64_t end = 0;
    int parent = -1;
  };

  int begin(std::string name, std::string layer, std::string key = "");
  void end(int id);

  /// RAII span. A null tracer records nothing, so untraced code paths
  /// share the traced ones at the cost of one branch.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name, std::string layer,
          std::string key = "")
        : tracer_(tracer),
          id_(tracer ? tracer->begin(std::move(name), std::move(layer),
                                     std::move(key))
                     : -1) {}
    ~Scope() {
      if (tracer_) tracer_->end(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int id_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (microseconds) of every span called `name`.
  std::vector<double> durations_us(const std::string& name) const;

  /// Self time per layer, seconds, plus span counts.
  struct LayerTime {
    double self_s = 0.0;
    std::size_t spans = 0;
  };
  std::map<std::string, LayerTime> self_time_by_layer() const;

  /// Write the spans as Chrome trace JSON (loads in Perfetto).
  void write_chrome_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Print the traced run's per-layer self-time table, check that the self
/// times add up to the root span's wall time, and export the trace.
/// Returns the root span's wall seconds.
double finish_trace(const Tracer& tracer, const Args& args, Result& result);

}  // namespace perfbench
