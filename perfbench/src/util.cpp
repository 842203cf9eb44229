#include "util.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench {

namespace {

std::uint64_t g_process_start_ns = 0;

std::vector<MetricSpec> build_per_layer() {
  std::vector<MetricSpec> specs;
  const auto add_task_family = [&](const char* prefix, const char* unit) {
    for (const std::string& task : table1_tasks()) {
      specs.push_back({prefix + task, unit});
    }
  };
  add_task_family("common.sweep_ns.", "ns");
  add_task_family("vsa.dvp_us.", "us");
  add_task_family("vsa.biconv_us.", "us");
  add_task_family("vsa.encode_us.", "us");
  add_task_family("vsa.similarity_us.", "us");
  for (const char* task : {"ISOLET", "HAR"}) {
    for (const char* pass : {".fwd", ".dw", ".dx"}) {
      specs.push_back(
          {std::string("tensor.gemm_gflops.") + task + pass, "GFLOP/s"});
    }
  }
  const MetricSpec fixed[] = {
      {"common.pool_efficiency", "ratio"},
      {"vsa.batch_sps_1t", "1/s"},
      {"vsa.engine_overhead_us", "us"},
      {"runtime.queue_wait_us_p50", "us"},
      {"runtime.queue_wait_us_p99", "us"},
      {"runtime.service_us_p50", "us"},
      {"runtime.batch_mean", "count"},
      {"runtime.latency_us_p50", "us"},
      {"runtime.latency_us_p99", "us"},
      {"runtime.max_queue_depth", "count"},
      {"runtime.publish_us", "us"},
      {"net.overhead_us_p50", "us"},
      {"net.encode_ns", "ns"},
      {"net.decode_ns", "ns"},
      {"net.generator_lag_us_p99", "us"},
      {"net.router_hop_us", "us"},
      {"tensor.gemm_share", "ratio"},
      {"train.step_ms", "ms"},
      {"latency.tail_ms", "ms"},
      {"net.max_rps", "1/s"},
      {"trace_overhead_pct", "%"},
      {"trace.unattributed_pct", "%"},
  };
  specs.insert(specs.end(), std::begin(fixed), std::end(fixed));
  return specs;
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

void mark_process_start() { g_process_start_ns = now_ns(); }

double since_process_start_s() {
  return static_cast<double>(now_ns() - g_process_start_ns) * 1e-9;
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

double windowed_quantile(const std::vector<double>& values,
                         std::size_t window, double q) {
  const std::size_t runs = window == 0 ? 0 : values.size() / window;
  if (runs < 2) return quantile(values, q);
  std::vector<double> tails;
  for (std::size_t r = 0; r < runs; ++r) {
    const auto begin = values.begin() + static_cast<long>(r * window);
    const auto end = r + 1 == runs ? values.end()
                                   : begin + static_cast<long>(window);
    tails.push_back(quantile(std::vector<double>(begin, end), q));
  }
  return median(tails);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

void LatencyBins::add(double us) {
  const double clamped =
      std::clamp(us, 0.0, static_cast<double>(bins_.size() - 1));
  ++bins_[static_cast<std::size_t>(clamped)];
  ++count_;
}

double LatencyBins::quantile_us(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_ - 1);
  std::uint64_t below = 0;
  for (std::size_t b = 0; b < bins_.size(); ++b) {
    if (static_cast<double>(below + bins_[b]) > rank) {
      return static_cast<double>(b) +
             (rank - static_cast<double>(below) + 0.5) /
                 static_cast<double>(bins_[b]);
    }
    below += bins_[b];
  }
  return static_cast<double>(bins_.size() - 1);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"throughput", "1/s"},
      {"p50_ms", "ms"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = build_per_layer();
  return specs;
}

const std::vector<std::string>& table1_tasks() {
  static const std::vector<std::string> tasks = {
      "EEGMMI", "BCI-III-V", "CHB-B", "CHB-IB", "ISOLET", "HAR"};
  return tasks;
}

void Result::check_failed(const std::string& what) {
  correct = false;
  if (errors.size() < 8) errors.push_back(what);
}

std::string result_json(const Result& result, bool trace) {
  std::ostringstream os;
  os << "{\"correct\": " << (result.correct ? "true" : "false")
     << ", \"attempted\": " << result.attempted
     << ", \"failed\": " << result.failed << ", \"metrics\": {";
  const auto& specs = trace ? per_layer_metrics() : end_to_end_metrics();
  bool first = true;
  for (const MetricSpec& spec : specs) {
    const auto it = result.metrics.find(spec.name);
    double value = it == result.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) value = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    os << (first ? "" : ", ") << "\"" << spec.name << "\": {\"value\": "
       << buf << ", \"unit\": \"" << spec.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

std::string result_table(const Result& result, bool trace) {
  std::ostringstream os;
  const auto& specs = trace ? per_layer_metrics() : end_to_end_metrics();
  for (const MetricSpec& spec : specs) {
    const auto it = result.metrics.find(spec.name);
    if (it == result.metrics.end()) continue;  // layer not exercised
    char buf[160];
    std::snprintf(buf, sizeof(buf), "  %-34s %14.4f %s\n", spec.name.c_str(),
                  it->second, spec.unit);
    os << buf;
  }
  return os.str();
}

}  // namespace perfbench
