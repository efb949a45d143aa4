#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <stdexcept>
#include <thread>

namespace perfbench {

double percentile(std::vector<double> sample, double p) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const double rank = p / 100.0 * static_cast<double>(sample.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sample.size() - 1);
  return sample[lo] + (rank - static_cast<double>(lo)) * (sample[hi] - sample[lo]);
}

double median(const std::vector<double>& sample) {
  return percentile(sample, 50.0);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int bench_threads(int cap) {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(
      std::clamp(hw == 0 ? 1u : hw, 1u, static_cast<unsigned>(std::max(cap, 1))));
}

void report_line(const std::string& name, double value,
                 const std::string& unit, std::size_t samples,
                 const std::string& note) {
  std::cout << "  " << std::left << std::setw(34) << name << std::right
            << std::setw(16) << std::setprecision(6) << value << " "
            << std::left << std::setw(8) << unit << std::right
            << " n=" << samples;
  if (!note.empty()) std::cout << "  (" << note << ")";
  std::cout << "\n";
}

int Tracer::begin(std::string name, std::string layer, std::string key) {
  Span s;
  s.name = std::move(name);
  s.layer = std::move(layer);
  s.key = std::move(key);
  s.parent = open_.empty() ? -1 : open_.back();
  s.start = now_ns();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (open_.empty() || open_.back() != id)
    throw std::logic_error("span " + std::to_string(id) +
                           " closed out of order");
  spans_[static_cast<std::size_t>(id)].end = now_ns();
  open_.pop_back();
}

std::vector<double> Tracer::durations_us(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name) out.push_back(static_cast<double>(s.end - s.start) * 1e-3);
  return out;
}

std::map<std::string, Tracer::LayerTime> Tracer::self_time_by_layer() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    LayerTime& lt = out[s.layer];
    lt.self_s += static_cast<double>(s.end - s.start - child_ns[i]) * 1e-9;
    ++lt.spans;
  }
  return out;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buf[64];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "") << "{\"name\":\"" << json_escape(s.name)
        << "\",\"cat\":\"" << json_escape(s.layer)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":";
    std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(s.start - t0) * 1e-3);
    out << buf << ",\"dur\":";
    std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(s.end - s.start) * 1e-3);
    out << buf << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"key\":\"" << json_escape(s.key) << "\"}}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("failed writing trace " + path);
}

double finish_trace(const Tracer& tracer, const Args& args, Result& result) {
  const auto& spans = tracer.spans();
  double wall = 0.0;
  for (const auto& s : spans)
    if (s.parent < 0) wall += static_cast<double>(s.end - s.start) * 1e-9;
  const auto layers = tracer.self_time_by_layer();
  double self_sum = 0.0;
  std::cout << "self time by layer (traced run, " << spans.size()
            << " spans):\n";
  for (const auto& [layer, lt] : layers) {
    self_sum += lt.self_s;
    std::cout << "  " << std::left << std::setw(10) << layer << std::right
              << std::setw(12) << std::fixed << std::setprecision(4)
              << lt.self_s << " s " << std::setw(7) << std::setprecision(1)
              << (wall > 0.0 ? 100.0 * lt.self_s / wall : 0.0) << "%  "
              << lt.spans << " span(s)\n";
    result.set("trace.self_s." + layer, lt.self_s);
  }
  std::cout.unsetf(std::ios::floatfield);
  std::cout << std::setprecision(6);
  // Children lie inside their parents on one thread, so the self times
  // partition the root spans exactly; the tolerance only absorbs float
  // rounding of the nanosecond sums.
  constexpr double kSelfTimeTolerance = 0.01;
  const double gap = wall > 0.0 ? std::abs(self_sum - wall) / wall : 1.0;
  std::cout << "  self-time sum " << self_sum << " s vs traced wall " << wall
            << " s (tolerance " << 100.0 * kSelfTimeTolerance << "%)\n";
  if (gap > kSelfTimeTolerance)
    result.fail("self times sum to " + std::to_string(self_sum) +
                " s, traced wall is " + std::to_string(wall) + " s");
  tracer.write_chrome_json(args.trace_out);
  std::cout << "chrome trace written to " << args.trace_out << "\n";
  return wall;
}

}  // namespace perfbench
