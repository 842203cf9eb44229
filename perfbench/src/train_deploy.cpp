// train_deploy: train UniVSA on two Table I tasks of different shape from
// the synthetic generator (train::train_network), extract the deployed
// model (UniVsaNetwork::extract_model) and check it, round after round
// until the run's time is up. The only workload that exercises `tensor`
// (GEMM), `nn` and `train`; the inference layers do almost nothing here.
#include <random>

#include "checks.h"
#include "tracer.h"
#include "univsa/runtime/backend.h"
#include "univsa/telemetry/metrics.h"
#include "univsa/tensor/gemm.h"
#include "univsa/train/univsa_trainer.h"
#include "workloads.h"

namespace perfbench {

namespace uv = univsa;

namespace {

const char* const kTasks[] = {"ISOLET", "HAR"};
constexpr std::size_t kTrainCount = 240;
constexpr std::size_t kTestCount = 120;
constexpr std::size_t kEpochs = 4;
constexpr std::size_t kBatchSize = 32;
constexpr std::size_t kOracleSamples = 2;
/// Deployed test accuracy must reach this multiple of chance (1/C).
constexpr double kChanceMultiple = 2.5;

struct Task {
  std::string name;
  uv::vsa::ModelConfig config;
  uv::data::Dataset train;
  uv::data::Dataset test;
  std::vector<std::vector<std::uint16_t>> test_values;
  uv::telemetry::HistogramSnapshot steps;  // step times, merged over rounds
  std::vector<double> train_sps;  // per untraced train_network call
  std::vector<double> deploy_ms;  // train_network + extract_model
  double min_accuracy = 1.0;
};

/// Adds the bucket counts of `more` into `into` (same bucket layout).
void merge(uv::telemetry::HistogramSnapshot& into,
           const uv::telemetry::HistogramSnapshot& more) {
  if (more.count == 0) return;
  if (into.count == 0 || more.min < into.min) into.min = more.min;
  into.max = std::max(into.max, more.max);
  into.count += more.count;
  into.sum += more.sum;
  std::vector<uv::telemetry::HistogramSnapshot::Bucket> merged;
  std::size_t i = 0, j = 0;
  while (i < into.buckets.size() || j < more.buckets.size()) {
    if (j == more.buckets.size() ||
        (i < into.buckets.size() &&
         into.buckets[i].upper < more.buckets[j].upper)) {
      merged.push_back(into.buckets[i++]);
    } else if (i == into.buckets.size() ||
               more.buckets[j].upper < into.buckets[i].upper) {
      merged.push_back(more.buckets[j++]);
    } else {
      merged.push_back({into.buckets[i].upper,
                        into.buckets[i].count + more.buckets[j].count});
      ++i;
      ++j;
    }
  }
  into.buckets = std::move(merged);
}

/// GFLOP/s of one GEMM call shape (2·m·n·k flops), median of 30 calls.
double gemm_gflops(uv::GemmLayout layout, std::size_t m, std::size_t n,
                   std::size_t k) {
  std::mt19937 gen(1);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> a(m * k), b(k * n), c(m * n);
  for (float& x : a) x = dist(gen);
  for (float& x : b) x = dist(gen);
  std::vector<double> seconds;
  for (int rep = 0; rep < 30; ++rep) {
    const std::uint64_t t0 = now_ns();
    {
      Span span("tensor.gemm");
      uv::gemm(layout, m, n, k, a.data(), b.data(), c.data());
    }
    seconds.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return 2.0 * static_cast<double>(m * n * k) / median(seconds) * 1e-9;
}

}  // namespace

void run_train_deploy(const Options& options, Result& result) {
  std::vector<Task> tasks;
  for (const char* name : kTasks) {
    const uv::data::Benchmark& benchmark = uv::data::find_benchmark(name);
    uv::data::SyntheticSpec spec = benchmark.spec;
    spec.seed = mix(options.seed, spec.seed);
    spec.train_count = kTrainCount;
    spec.test_count = kTestCount;
    uv::data::SyntheticResult data = uv::data::generate(spec);
    Task task{name, benchmark.config, std::move(data.train),
              std::move(data.test), {}, {}, {}, {}, 1.0};
    task.test_values = pool_values(task.test);
    tasks.push_back(std::move(task));
  }
  result.set("setup_s", since_process_start_s());

  uv::telemetry::LatencyHistogram& step_hist =
      uv::telemetry::histogram("train.step_ns");
  uv::telemetry::Counter& gemm_ns = uv::telemetry::counter("gemm.ns_total");
  Tracer& tracer = Tracer::instance();
  const bool traced_run = tracer.on();
  std::uint64_t traced_ns = 0;  // the rounds with spans on
  const double deadline = now_s() + options.seconds;
  double train_s = 0.0;
  double traced_train_s = 0.0;
  double samples_trained = 0.0;
  double traced_samples = 0.0;
  std::uint64_t gemm_total_ns = 0;
  std::vector<uv::vsa::Prediction> deployed, reference;
  std::size_t disagreements = 0;
  std::size_t compared = 0;
  for (std::size_t round = 0; round == 0 || now_s() < deadline; ++round) {
    const bool spans_on = traced_run && round % 2 == 1;
    tracer.set_on(spans_on);
    const std::uint64_t round_start = now_ns();
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      Task& task = tasks[t];
      uv::train::TrainOptions train_options;
      train_options.epochs = kEpochs;
      train_options.batch_size = kBatchSize;
      train_options.seed = mix(options.seed, round * 2 + t);
      step_hist.reset();
      const std::uint64_t gemm0 = gemm_ns.total();
      const std::uint64_t t0 = now_ns();
      uv::train::TrainedNetwork trained;
      {
        Span span("train.train_network");
        trained = uv::train::train_network(task.config,
                                           uv::train::NetworkOptions{},
                                           task.train, train_options);
      }
      const double dt = static_cast<double>(now_ns() - t0) * 1e-9;
      gemm_total_ns += gemm_ns.total() - gemm0;
      merge(task.steps, step_hist.snapshot());
      const double samples = static_cast<double>(kEpochs * task.train.size());
      (spans_on ? traced_train_s : train_s) += dt;
      (spans_on ? traced_samples : samples_trained) += samples;
      if (!spans_on) task.train_sps.push_back(samples / dt);
      ++result.attempted;

      uv::vsa::Model model;
      {
        Span span("train.extract_model");
        model = trained.network->extract_model();
      }
      if (!spans_on) {
        task.deploy_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
      }
      std::vector<std::size_t> indices(task.test.size());
      for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
      std::vector<int> network_labels;
      {
        Span span("train.predict");
        network_labels = trained.network->predict(task.test, indices);
      }
      {
        Span span("runtime.predict_batch");
        uv::runtime::PackedBackend backend(model);
        backend.predict_batch(task.test_values, deployed, false);
      }
      Span check_span("bench.check");
      uv::runtime::ReferenceBackend ref_backend(model);
      ref_backend.predict_batch(task.test_values, reference, false);
      std::size_t correct = 0;
      compared += deployed.size();
      for (std::size_t i = 0; i < deployed.size(); ++i) {
        const std::string why =
            check_answer(task.config, reference[i], deployed[i]);
        // Reported, not failed: the float network and the extracted model
        // disagree now and then on the same trained weights (CHANGES.md).
        if (deployed[i].label != network_labels[i]) ++disagreements;
        if (!why.empty()) result.check_failed(task.name + ": " + why);
        if (deployed[i].label == task.test.label(i)) ++correct;
      }
      for (std::size_t i = 0; i < kOracleSamples; ++i) {
        const std::string why = check_same(
            oracle_predict(model, task.test_values[i]), reference[i]);
        if (!why.empty()) result.check_failed(task.name + " oracle: " + why);
      }
      const double accuracy = static_cast<double>(correct) /
                              static_cast<double>(deployed.size());
      const double floor = kChanceMultiple / static_cast<double>(task.config.C);
      task.min_accuracy = std::min(task.min_accuracy, accuracy);
      if (accuracy < floor) {
        result.check_failed(task.name + ": test accuracy " +
                            std::to_string(accuracy) + " below floor " +
                            std::to_string(floor));
      }
      if (round == 0 && t == 0) {
        uv::Rng rng(mix(options.seed, 7));
        self_check(model, task.test_values[0], rng, result);
      }
    }
    if (spans_on) traced_ns += now_ns() - round_start;
  }
  tracer.set_on(traced_run);

  std::printf("  UniVsaNetwork::predict vs deployed labels: %zu of %zu differ\n",
              disagreements, compared);
  std::vector<double> sps, deploy_ms, p50, p90;
  for (const Task& task : tasks) {
    std::printf("  %-10s lowest test accuracy %.3f (floor %.3f)\n",
                task.name.c_str(), task.min_accuracy,
                kChanceMultiple / static_cast<double>(task.config.C));
    sps.push_back(median(task.train_sps));
    deploy_ms.push_back(median(task.deploy_ms));
    p50.push_back(static_cast<double>(task.steps.percentile(0.5)) * 1e-6);
    p90.push_back(static_cast<double>(task.steps.percentile(0.9)) * 1e-6);
  }
  result.set("throughput", geomean(sps));
  result.set("p50_ms", geomean(deploy_ms));
  result.set("latency.tail_ms", geomean(p90));
  result.set("train.step_ms", geomean(p50));
  result.set("tensor.gemm_share",
             static_cast<double>(gemm_total_ns) * 1e-9 /
                 (train_s + traced_train_s));
  if (traced_run) {
    const std::uint64_t probe_start = now_ns();
    const double untraced_sps = samples_trained / train_s;
    const double traced_sps = traced_samples / traced_train_s;
    result.set("trace_overhead_pct",
               100.0 * (untraced_sps - traced_sps) / untraced_sps);
    // The BinaryConv2d GEMMs of one training sample at each task's shape:
    // forward (O, W·L, D_H·K²), weight grad and input grad.
    for (const Task& task : tasks) {
      const auto& c = task.config;
      const std::size_t o = c.O, plane = c.W * c.L, ckk = c.D_H * c.D_K * c.D_K;
      const std::string base = "tensor.gemm_gflops." + task.name;
      result.set(base + ".fwd", gemm_gflops(uv::GemmLayout::kNN, o, plane, ckk));
      result.set(base + ".dw", gemm_gflops(uv::GemmLayout::kNT, o, ckk, plane));
      result.set(base + ".dx", gemm_gflops(uv::GemmLayout::kTN, ckk, plane, o));
    }
    result.window_ns = traced_ns + (now_ns() - probe_start);
  }
}

}  // namespace perfbench
