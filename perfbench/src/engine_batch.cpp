// engine_batch: offline batched inference through the default backend
// over the six Table I shapes, each once on the calling thread
// (predict_batch(parallel=false)) and once over the global pool. Shapes
// and modes interleave call by call, so a slow spell of the host hits
// every shape alike; each figure is a median over the run's calls.
#include <memory>

#include "checks.h"
#include "tracer.h"
#include "univsa/common/simd.h"
#include "univsa/common/thread_pool.h"
#include "univsa/runtime/backend.h"
#include "univsa/runtime/registry.h"
#include "workloads.h"

namespace perfbench {

namespace uv = univsa;

namespace {

constexpr std::size_t kPool = 128;   // samples per shape
constexpr std::size_t kBatch = 64;   // samples per predict_batch call
constexpr std::size_t kOracleSamples = 3;

struct Shape {
  std::string name;
  uv::vsa::Model model;
  std::vector<std::vector<std::uint16_t>> values;
  std::vector<std::vector<std::uint16_t>> batches[2];
  std::unique_ptr<uv::runtime::Backend> backend;
  std::vector<uv::vsa::Prediction> expected;  // reference backend, per sample
  std::vector<double> call_s[2];              // [0] 1 thread, [1] pool
  std::vector<double> traced_call_s;          // pool calls with spans on
};

// Per-sample time of each pipeline stage, called one by one on a scratch
// arena the way the engine calls them.
void probe_stages(Shape& shape, Result& result) {
  const uv::vsa::Model& model = shape.model;
  uv::vsa::InferScratch scratch(model.config());
  const uv::simd::Kernels& kernels = uv::simd::active();
  std::uint64_t ns[4] = {0, 0, 0, 0};
  std::size_t samples = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& values : shape.values) {
      std::uint64_t t0 = now_ns();
      {
        Span span("vsa.project_values_into");
        model.project_values_into(values, scratch.volume);
      }
      std::uint64_t t1 = now_ns();
      {
        Span span("vsa.convolve_into");
        model.convolve_into(scratch.volume, scratch);
      }
      std::uint64_t t2 = now_ns();
      {
        Span span("vsa.encode_into");
        model.encode_into(scratch);
      }
      std::uint64_t t3 = now_ns();
      {
        Span span("vsa.similarity_into");
        model.similarity_into(scratch.sample, scratch.prediction, kernels);
      }
      std::uint64_t t4 = now_ns();
      ns[0] += t1 - t0;
      ns[1] += t2 - t1;
      ns[2] += t3 - t2;
      ns[3] += t4 - t3;
      ++samples;
    }
  }
  const double per = 1e-3 / static_cast<double>(samples);
  result.set("vsa.dvp_us." + shape.name, static_cast<double>(ns[0]) * per);
  result.set("vsa.biconv_us." + shape.name, static_cast<double>(ns[1]) * per);
  result.set("vsa.encode_us." + shape.name, static_cast<double>(ns[2]) * per);
  result.set("vsa.similarity_us." + shape.name,
             static_cast<double>(ns[3]) * per);

  // One fused BiConv kernel sweep (words_per_patch × O) on the tables the
  // last convolve_into packed, at a mid-volume position.
  const std::size_t words = scratch.words_per_patch;
  const std::size_t pos = model.config().features() / 2;
  constexpr std::size_t kSweeps = 20000;
  std::uint64_t sink = 0;
  const std::uint64_t s0 = now_ns();
  {
    Span span("common.masked_xnor_popcount_sweep");
    for (std::size_t i = 0; i < kSweeps; ++i) {
      kernels.masked_xnor_popcount_sweep(
          scratch.patch_words.data(), scratch.valid_words.data() + pos * words,
          scratch.kernel_words.data(), words, model.config().O,
          scratch.kernel_acc.data());
      sink += scratch.kernel_acc[i % model.config().O];
    }
  }
  const std::uint64_t s1 = now_ns();
  if (sink == 0xFFFFFFFFFFFFFFFFull) std::printf("%llu\n", 0ull);  // keep sink
  result.set("common.sweep_ns." + shape.name,
             static_cast<double>(s1 - s0) / static_cast<double>(kSweeps));
}

}  // namespace

void run_engine_batch(const Options& options, Result& result) {
  const std::string backend_name = uv::runtime::default_backend();
  std::vector<Shape> shapes;
  for (const std::string& task : table1_tasks()) {
    const uv::data::Benchmark& benchmark = uv::data::find_benchmark(task);
    Shape shape{task, random_model(benchmark, options.seed), {}, {}, {}, {},
                {}, {}};
    shape.values = pool_values(sample_pool(benchmark, options.seed, kPool));
    for (std::size_t i = 0; i < kPool; ++i) {
      shape.batches[i / kBatch].push_back(shape.values[i]);
    }
    shapes.push_back(std::move(shape));
  }
  for (Shape& shape : shapes) {  // backends keep the model's address
    shape.backend = uv::runtime::make_backend(backend_name, shape.model);
  }
  std::vector<uv::vsa::Prediction> out;
  for (Shape& shape : shapes) {  // warm-up: arenas, packed tables, pool
    for (const bool parallel : {false, true}) {
      shape.backend->predict_batch(shape.batches[0], out, parallel);
    }
  }
  result.set("setup_s", since_process_start_s());

  // Expected answers, made apart from the measured backend.
  uv::Rng rng(mix(options.seed, 7));
  for (Shape& shape : shapes) {
    uv::runtime::ReferenceBackend reference(shape.model);
    reference.predict_batch(shape.values, shape.expected, false);
    for (std::size_t i = 0; i < kOracleSamples; ++i) {
      const std::string why = check_same(
          oracle_predict(shape.model, shape.values[i]), shape.expected[i]);
      if (!why.empty()) result.check_failed(shape.name + " oracle: " + why);
    }
    self_check(shape.model, shape.values[0], rng, result);
  }

  Tracer& tracer = Tracer::instance();
  const bool traced_run = tracer.on();
  std::uint64_t traced_ns = 0;  // the rounds with spans on
  const double deadline = now_s() + options.seconds;
  for (std::size_t round = 0; now_s() < deadline; ++round) {
    // A traced run alternates rounds with spans on and off; the pool
    // figures of the two halves give trace_overhead_pct.
    const bool spans_on = traced_run && (round / 2) % 2 == 1;
    tracer.set_on(spans_on);
    const std::uint64_t round_start = now_ns();
    for (Shape& shape : shapes) {
      const std::size_t half = round % 2;
      for (const bool parallel : {false, true}) {
        const std::uint64_t t0 = now_ns();
        {
          Span span(parallel ? "runtime.predict_batch.pool"
                             : "runtime.predict_batch.1t");
          shape.backend->predict_batch(shape.batches[half], out, parallel);
        }
        const double dt = static_cast<double>(now_ns() - t0) * 1e-9;
        if (parallel && spans_on) {
          shape.traced_call_s.push_back(dt);
        } else {
          shape.call_s[parallel ? 1 : 0].push_back(dt);
        }
        result.attempted += kBatch;
        Span check_span("bench.check");
        for (std::size_t j = 0; j < kBatch; ++j) {
          const std::string why =
              check_answer(shape.model.config(),
                           shape.expected[half * kBatch + j], out[j]);
          if (!why.empty()) result.check_failed(shape.name + ": " + why);
        }
      }
    }
    if (spans_on) traced_ns += now_ns() - round_start;
  }
  tracer.set_on(traced_run);

  std::vector<double> sps_1t, sps_pool, p50_ms, tail_ms, traced_sps;
  for (const Shape& shape : shapes) {
    sps_1t.push_back(static_cast<double>(kBatch) / median(shape.call_s[0]));
    sps_pool.push_back(static_cast<double>(kBatch) / median(shape.call_s[1]));
    p50_ms.push_back(1e3 * median(shape.call_s[1]));
    tail_ms.push_back(1e3 * windowed_quantile(shape.call_s[1], 20, 0.9));
    if (traced_run) {
      traced_sps.push_back(static_cast<double>(kBatch) /
                           median(shape.traced_call_s));
    }
    std::printf("  %-10s 1t %9.1f samples/s   pool %9.1f samples/s\n",
                shape.name.c_str(), sps_1t.back(), sps_pool.back());
  }
  const double arenas =
      static_cast<double>(uv::global_pool().thread_count() + 1);
  result.set("throughput", geomean(sps_pool));
  result.set("p50_ms", geomean(p50_ms));
  result.set("latency.tail_ms", geomean(tail_ms));
  result.set("vsa.batch_sps_1t", geomean(sps_1t));
  result.set("common.pool_efficiency",
             geomean(sps_pool) / (arenas * geomean(sps_1t)));

  if (traced_run) {
    const std::uint64_t probe_start = now_ns();
    result.set("trace_overhead_pct",
               100.0 * (geomean(sps_pool) - geomean(traced_sps)) /
                   geomean(sps_pool));
    double overhead_us = 0.0;
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      probe_stages(shapes[i], result);
      const std::string& name = shapes[i].name;
      const double stages = result.metrics["vsa.dvp_us." + name] +
                            result.metrics["vsa.biconv_us." + name] +
                            result.metrics["vsa.encode_us." + name] +
                            result.metrics["vsa.similarity_us." + name];
      overhead_us += 1e6 / sps_1t[i] - stages;
    }
    result.set("vsa.engine_overhead_us",
               overhead_us / static_cast<double>(shapes.size()));
    result.window_ns = traced_ns + (now_ns() - probe_start);
  }
}

}  // namespace perfbench
