// Shared plumbing of the repo benchmark: options, clocks, order
// statistics, the metric catalogue and the final JSON result line.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Monotonic clock in nanoseconds / seconds.
std::uint64_t now_ns();
double now_s();

/// Seconds since the process entered main() (set by mark_process_start).
void mark_process_start();
double since_process_start_s();

/// splitmix64 of (seed, salt): independent per-purpose seeds.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt);

/// Quantile in [0, 1] with linear interpolation between order
/// statistics (the same rule as numpy's default). 0 for an empty input.
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);
/// Tail that a short stall of the shared host cannot set on its own: the
/// q-quantile of each run of `window` consecutive values (the remainder
/// joins the last run), then the median of those quantiles.
double windowed_quantile(const std::vector<double>& values,
                         std::size_t window, double q);
double geomean(const std::vector<double>& values);

/// Latencies counted in fixed 1 µs bins up to `max_us` (slower ones share
/// the last bin), so the memory stays the same however many are added.
class LatencyBins {
 public:
  explicit LatencyBins(std::size_t max_us) : bins_(max_us + 1, 0) {}
  void add(double us);
  /// The q-quantile in µs, interpolated within its bin; 0 when empty.
  double quantile_us(double q) const;

 private:
  std::vector<std::uint64_t> bins_;
  std::uint64_t count_ = 0;
};

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

struct MetricSpec {
  std::string name;
  const char* unit;
};

/// Every end-to-end metric, printed by an untraced run of any workload.
const std::vector<MetricSpec>& end_to_end_metrics();
/// Every per-layer metric, printed by a traced run of any workload;
/// layers a workload does not exercise read 0.
const std::vector<MetricSpec>& per_layer_metrics();

/// The six Table I shapes, in the paper's order.
const std::vector<std::string>& table1_tasks();

/// What one run reports.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> errors;  ///< first few check failures
  /// Wall time of the measured window (the self-time table's base).
  std::uint64_t window_ns = 0;

  /// Records a failed output check (the run is then not correct).
  void check_failed(const std::string& what);
  void set(const std::string& name, double value) { metrics[name] = value; }
};

/// The last stdout line: {"correct", "attempted", "failed", "metrics"},
/// with the end-to-end catalogue (trace = false) or the per-layer one.
std::string result_json(const Result& result, bool trace);

/// Human-readable name/value/unit lines for the catalogue printed.
std::string result_table(const Result& result, bool trace);

}  // namespace perfbench
