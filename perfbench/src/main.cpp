// The repo benchmark program:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs one workload (engine_batch, wire_open_loop, zoo_swap, train_deploy)
// and prints, as its last stdout line, one JSON object with `correct`,
// `attempted`, `failed` and the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1). A traced run also writes its spans as
// Chrome trace-event JSON under .bench_trace/ and prints the per-layer
// self-time table. See README.md.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "tracer.h"
#include "util.h"
#include "workloads.h"

namespace {

using perfbench::Options;

bool parse(int argc, char** argv, Options& options) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else {
      return false;
    }
  }
  return have_workload && options.seconds > 0.0 && argc % 2 == 1;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::mark_process_start();
  Options options;
  if (!parse(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  perfbench::Tracer::instance().set_on(options.trace);

  perfbench::Result result;
  try {
    if (options.workload == "engine_batch") {
      perfbench::run_engine_batch(options, result);
    } else if (options.workload == "wire_open_loop") {
      perfbench::run_wire_open_loop(options, result);
    } else if (options.workload == "zoo_swap") {
      perfbench::run_zoo_swap(options, result);
    } else if (options.workload == "train_deploy") {
      perfbench::run_train_deploy(options, result);
    } else {
      std::fprintf(stderr, "unknown workload: %s\n", options.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s aborted: %s\n", options.workload.c_str(),
                 e.what());
    return 1;
  }
  result.set("peak_rss_mb", perfbench::peak_rss_mb());

  if (options.trace) {
    const perfbench::Tracer& tracer = perfbench::Tracer::instance();
    double unattributed = 0.0;
    const std::string table =
        tracer.self_time_table(result.window_ns, &unattributed);
    result.set("trace.unattributed_pct", unattributed);
    ::mkdir(".bench_trace", 0755);
    const std::string path = ".bench_trace/" + options.workload + "-seed" +
                             std::to_string(options.seed) + ".json";
    const bool written = tracer.write_chrome(path);
    std::printf("per-layer self time (load thread, %.3f s window):\n%s",
                static_cast<double>(result.window_ns) / 1e9, table.c_str());
    std::printf("trace: %zu spans (%zu dropped) %s %s\n",
                tracer.spans().size(), tracer.dropped(),
                written ? "written to" : "could not be written to",
                path.c_str());
  }
  for (const std::string& error : result.errors) {
    std::printf("CHECK FAILED: %s\n", error.c_str());
  }
  std::printf("%s", perfbench::result_table(result, options.trace).c_str());
  std::printf("%s\n", perfbench::result_json(result, options.trace).c_str());
  return result.correct ? 0 : 3;
}
