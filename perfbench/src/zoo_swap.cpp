// zoo_swap: a closed loop of a fixed number of outstanding requests,
// submitted in-process from one thread through Server::try_submit_async,
// spread over five tenants — more than a worker's backend cache holds —
// while the same thread publishes new model versions to the shared
// ModelRegistry at a steady rate. Deep queues, batches that never mix
// snapshots, backend rebuilds, and registry writes beside reads; no wire.
//
// Because only this thread publishes, the version a request resolves at
// submit is the one it published last for that tenant; every answer is
// checked against the reference backend's answer for that version.
#include <chrono>
#include <condition_variable>
#include <future>
#include <map>
#include <mutex>
#include <random>
#include <tuple>

#include "checks.h"
#include "tracer.h"
#include "univsa/runtime/backend.h"
#include "univsa/runtime/model_registry.h"
#include "univsa/runtime/server.h"
#include "workloads.h"

namespace perfbench {

namespace uv = univsa;

namespace {

const char* const kTenants[] = {"KWS", "ANOMALY", "GESTURE", "ISOLET", "HAR"};
constexpr std::size_t kTenantCount = 5;
constexpr std::size_t kPool = 32;          // samples per tenant
/// Requests kept outstanding: deep, yet half the default shed watermark
/// (3/4 of the default queue capacity of 1024), so nothing is refused.
constexpr std::size_t kOutstanding = 384;
constexpr double kPublishesPerSecond = 20.0;
/// Answers per window of the windowed p99 (about 0.5 s of answers).
constexpr std::size_t kTailWindow = 20000;
/// `throughput` is the median completion rate over slices of this length,
/// so a stall of the shared host does not set a run's figure on its own.
constexpr std::uint64_t kRateSliceNs = 500000000;
/// Latencies are binned up to this many µs; the bookkeeping then takes
/// the same memory however many requests complete, so peak_rss_mb does
/// not follow the run's own throughput.
constexpr std::size_t kMaxLatencyUs = 200000;

struct Tenant {
  std::string name;
  std::vector<std::vector<std::uint16_t>> values;
  std::vector<uv::vsa::Model> versions;  // versions[v - 1] is version v
  std::size_t published = 0;             // versions in the registry
};

struct Done {
  std::uint32_t slot = 0;
  std::uint64_t done_ns = 0;
  uv::vsa::Prediction answer;
  bool ok = false;
  std::string error;
};

struct InFlight {
  std::uint32_t tenant = 0;
  std::uint32_t sample = 0;
  std::uint64_t version = 0;
  std::uint64_t submit_ns = 0;
  std::uint64_t request = 0;  ///< the id its spans share
  bool traced = false;
};

}  // namespace

void run_zoo_swap(const Options& options, Result& result) {
  const std::size_t versions_each = 1 + static_cast<std::size_t>(
      options.seconds * kPublishesPerSecond / kTenantCount + 1.0);
  std::vector<Tenant> tenants;
  uv::Rng rng(mix(options.seed, 3));
  for (std::size_t t = 0; t < kTenantCount; ++t) {
    const uv::data::Benchmark& benchmark = uv::data::find_benchmark(kTenants[t]);
    Tenant tenant{kTenants[t], {}, {}, 0};
    tenant.values = pool_values(sample_pool(benchmark, options.seed, kPool));
    tenant.versions.push_back(random_model(benchmark, options.seed));
    for (std::size_t v = 1; v < versions_each; ++v) {
      tenant.versions.push_back(next_version(tenant.versions[0], rng));
    }
    tenants.push_back(std::move(tenant));
  }
  auto registry = std::make_shared<uv::runtime::ModelRegistry>();
  for (Tenant& tenant : tenants) {
    registry->publish(tenant.name, tenant.versions[0]);
    tenant.published = 1;
  }
  uv::runtime::Server server(registry, uv::runtime::ServerOptions{});

  std::mutex mutex;
  std::condition_variable cv;
  std::vector<Done> done;  // guarded by mutex
  const auto submit = [&](std::uint32_t slot, std::size_t tenant,
                          std::size_t sample, std::uint64_t request) {
    uv::runtime::SubmitOptions submit_options;
    submit_options.tenant = tenants[tenant].name;
    Span span("runtime.try_submit_async", request);
    return server.try_submit_async(
        tenants[tenant].values[sample], submit_options,
        [&, slot](uv::vsa::Prediction&& answer, std::exception_ptr error) {
          Done d;
          d.slot = slot;
          d.done_ns = now_ns();
          d.ok = error == nullptr;
          if (error != nullptr) {
            try {
              std::rethrow_exception(error);
            } catch (const std::exception& e) {
              d.error = e.what();
            } catch (...) {
              d.error = "unknown error";
            }
          } else {
            d.answer = std::move(answer);
          }
          {
            std::lock_guard<std::mutex> lock(mutex);
            done.push_back(std::move(d));
          }
          cv.notify_one();
        });
  };

  // Warm-up: every tenant's first version through the server once.
  {
    std::vector<std::future<uv::vsa::Prediction>> warm;
    for (std::size_t t = 0; t < kTenantCount; ++t) {
      uv::runtime::SubmitOptions submit_options;
      submit_options.tenant = tenants[t].name;
      for (std::size_t i = 0; i < 8; ++i) {
        warm.push_back(server.submit(tenants[t].values[i], submit_options));
      }
    }
    for (auto& f : warm) f.get();
  }
  result.set("setup_s", since_process_start_s());
  self_check(tenants[0].versions[0], tenants[0].values[0], rng, result);

  // First answer seen per (tenant, version, sample); each later answer for
  // the same key must equal it, and after the run every key is checked
  // against the reference backend of that version.
  std::map<std::tuple<std::uint32_t, std::uint64_t, std::uint32_t>,
           uv::vsa::Prediction>
      answers;
  // One slot per outstanding request, reused as answers come back.
  std::vector<InFlight> slots(kOutstanding);
  std::vector<std::uint32_t> free_slots;
  for (std::uint32_t i = kOutstanding; i > 0; --i) free_slots.push_back(i - 1);
  LatencyBins latency(kMaxLatencyUs);
  std::vector<double> tail_window, window_tails, slice_rps, publish_us;
  tail_window.reserve(kTailWindow);
  std::uniform_int_distribution<std::uint32_t> pick_tenant(0, kTenantCount - 1);
  std::uniform_int_distribution<std::uint32_t> pick_sample(0, kPool - 1);
  std::mt19937_64 gen(mix(options.seed, 5));

  const auto submit_next = [&]() {
    const std::uint32_t t = pick_tenant(gen);
    const std::uint32_t s = pick_sample(gen);
    const std::uint32_t slot = free_slots.back();
    free_slots.pop_back();
    ++result.attempted;
    slots[slot] = {t, s, tenants[t].published, now_ns(), result.attempted,
                   Tracer::instance().on()};
    const auto status = submit(slot, t, s, result.attempted);
    if (status != uv::runtime::SubmitStatus::kOk) {
      free_slots.push_back(slot);
      ++result.failed;
      if (result.errors.size() < 8) result.errors.push_back("refused at submit");
      return false;
    }
    return true;
  };

  Tracer& tracer = Tracer::instance();
  const bool traced_run = tracer.on();
  tracer.set_on(false);  // until the first traced slice
  const std::uint64_t window_start = now_ns();
  const std::uint64_t end =
      window_start + static_cast<std::uint64_t>(options.seconds * 1e9);
  const std::uint64_t publish_every =
      static_cast<std::uint64_t>(1e9 / kPublishesPerSecond);
  std::uint64_t next_publish = window_start + publish_every;
  std::size_t publish_turn = 0;
  std::size_t outstanding = 0;
  std::size_t completed = 0;
  std::size_t traced_completed = 0, untraced_completed = 0;
  std::uint64_t traced_ns = 0, untraced_ns = 0;
  for (std::size_t i = 0; i < kOutstanding; ++i) {
    if (submit_next()) ++outstanding;
  }
  std::vector<Done> batch;
  // A traced run records spans in one 250 ms slice of every eight (more
  // would overflow the span buffer); the other slices give the untraced
  // rate that trace_overhead_pct compares against.
  std::uint64_t slice_start = window_start;
  std::size_t slice_index = 0;
  bool slice_traced = false;
  std::uint64_t rate_slice_start = window_start;
  std::size_t rate_slice_completed = 0;
  for (;;) {
    const std::uint64_t now = now_ns();
    const bool running = now < end;
    if (running && now - rate_slice_start >= kRateSliceNs) {
      slice_rps.push_back(static_cast<double>(rate_slice_completed) * 1e9 /
                          static_cast<double>(now - rate_slice_start));
      rate_slice_start = now;
      rate_slice_completed = 0;
    }
    if (traced_run && running && now - slice_start >= 250000000ull) {
      (slice_traced ? traced_ns : untraced_ns) += now - slice_start;
      slice_start = now;
      slice_traced = ++slice_index % 8 == 4;
      tracer.set_on(slice_traced);
    }
    if (running && now >= next_publish) {
      Tenant& tenant = tenants[publish_turn++ % kTenantCount];
      if (tenant.published < tenant.versions.size()) {
        const std::uint64_t t0 = now_ns();
        {
          Span span("runtime.publish");
          registry->publish(tenant.name, tenant.versions[tenant.published]);
        }
        publish_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
        ++tenant.published;
      }
      next_publish += publish_every;
    }
    {
      std::unique_lock<std::mutex> lock(mutex);
      if (done.empty()) {
        Span span("load.wait");
        cv.wait_for(lock, std::chrono::microseconds(500),
                    [&] { return !done.empty(); });
      }
      batch.swap(done);
    }
    {
      Span check_span("bench.check");
      for (Done& d : batch) {
        --outstanding;
        const InFlight req = slots[d.slot];
        free_slots.push_back(d.slot);
        if (!d.ok) {
          ++result.failed;
          if (result.errors.size() < 8) result.errors.push_back(d.error);
          continue;
        }
        ++completed;
        ++rate_slice_completed;
        if (traced_run) ++(slice_traced ? traced_completed : untraced_completed);
        const double latency_us =
            static_cast<double>(d.done_ns - req.submit_ns) * 1e-3;
        latency.add(latency_us);
        if (req.traced) {
          tracer.record("request", req.submit_ns, d.done_ns, req.request);
        }
        tail_window.push_back(latency_us * 1e-3);
        if (tail_window.size() == kTailWindow) {
          window_tails.push_back(quantile(tail_window, 0.99));
          tail_window.clear();
        }
        const auto& cfg = tenants[req.tenant].versions[0].config();
        std::string why = check_properties(cfg, d.answer);
        const auto key = std::make_tuple(req.tenant, req.version, req.sample);
        const auto [it, fresh] = answers.emplace(key, d.answer);
        if (why.empty() && !fresh) why = check_same(it->second, d.answer);
        if (!why.empty()) {
          result.check_failed("zoo " + tenants[req.tenant].name + ": " + why);
        }
      }
    }
    batch.clear();
    if (running) {
      while (outstanding < kOutstanding && submit_next()) ++outstanding;
    } else if (outstanding == 0) {
      break;
    }
  }
  tracer.set_on(traced_run);
  const double window_s =
      static_cast<double>(now_ns() - window_start) * 1e-9;
  const uv::runtime::ServerStats stats = server.stats();
  server.shutdown();

  // Every distinct answer against the reference backend of its version,
  // and each version's first sample against the oracle.
  std::vector<std::vector<std::unique_ptr<uv::runtime::ReferenceBackend>>>
      references(kTenantCount);
  for (std::size_t t = 0; t < kTenantCount; ++t) {
    for (std::size_t v = 0; v < tenants[t].published; ++v) {
      references[t].push_back(std::make_unique<uv::runtime::ReferenceBackend>(
          tenants[t].versions[v]));
    }
  }
  for (const auto& [key, answer] : answers) {
    const auto [t, version, sample] = key;
    const uv::vsa::Prediction expected =
        references[t][version - 1]->predict(tenants[t].values[sample]);
    const std::string why = check_same(expected, answer);
    if (!why.empty()) {
      result.check_failed("zoo " + tenants[t].name + " v" +
                          std::to_string(version) + ": " + why);
    }
  }
  std::size_t versions_checked = 0;
  for (std::size_t t = 0; t < kTenantCount; ++t) {
    for (std::size_t v = 0; v < tenants[t].published; ++v) {
      const auto& model = tenants[t].versions[v];
      const std::string why =
          check_same(oracle_predict(model, tenants[t].values[0]),
                     references[t][v]->predict(tenants[t].values[0]));
      if (!why.empty()) {
        result.check_failed("zoo oracle " + tenants[t].name + ": " + why);
      }
      ++versions_checked;
    }
  }
  std::printf("  %zu answers, %zu distinct checked, %zu versions, "
              "%zu publishes\n",
              completed, answers.size(), versions_checked, publish_us.size());

  std::printf("  %.0f answers/s over the whole window\n",
              static_cast<double>(completed) / window_s);
  result.set("throughput", median(slice_rps));
  result.set("p50_ms", latency.quantile_us(0.5) * 1e-3);
  result.set("latency.tail_ms", window_tails.empty()
                                    ? quantile(tail_window, 0.99)
                                    : median(window_tails));
  const auto us = [](std::uint64_t ns) { return static_cast<double>(ns) * 1e-3; };
  result.set("runtime.queue_wait_us_p50", us(stats.queue_wait_ns.percentile(0.5)));
  result.set("runtime.queue_wait_us_p99", us(stats.queue_wait_ns.percentile(0.99)));
  result.set("runtime.service_us_p50", us(stats.service_ns.percentile(0.5)));
  result.set("runtime.batch_mean", stats.mean_batch());
  result.set("runtime.latency_us_p50", us(stats.latency_ns.percentile(0.5)));
  result.set("runtime.latency_us_p99", us(stats.latency_ns.percentile(0.99)));
  result.set("runtime.max_queue_depth",
             static_cast<double>(stats.max_queue_depth));
  result.set("runtime.publish_us", median(publish_us));
  if (traced_run && traced_ns > 0 && untraced_ns > 0) {
    const double traced_rate =
        static_cast<double>(traced_completed) / static_cast<double>(traced_ns);
    const double untraced_rate = static_cast<double>(untraced_completed) /
                                 static_cast<double>(untraced_ns);
    result.set("trace_overhead_pct",
               100.0 * (untraced_rate - traced_rate) / untraced_rate);
  }
  result.window_ns = traced_ns;  // the slices with spans on
}

}  // namespace perfbench
