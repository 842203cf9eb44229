// The four workloads. Each builds its inputs from Options::seed, times its
// own set-up from process start into "setup_s", measures for
// Options::seconds, checks every answer, and fills Result with both
// metric catalogues (main prints the one the run asked for).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "univsa/common/rng.h"
#include "univsa/data/benchmarks.h"
#include "univsa/data/dataset.h"
#include "univsa/vsa/model.h"
#include "util.h"

namespace perfbench {

void run_engine_batch(const Options& options, Result& result);
void run_wire_open_loop(const Options& options, Result& result);
void run_zoo_swap(const Options& options, Result& result);
void run_train_deploy(const Options& options, Result& result);

/// A task's test split from the synthetic generator, reseeded from the
/// run seed: `count` samples (the sample pool requests draw from).
univsa::data::Dataset sample_pool(const univsa::data::Benchmark& benchmark,
                                  std::uint64_t seed, std::size_t count);

/// A random deployed model of a task's Table I (or zoo) configuration.
univsa::vsa::Model random_model(const univsa::data::Benchmark& benchmark,
                                std::uint64_t seed);

/// A new version of `model`: fresh random class vectors, all else shared.
univsa::vsa::Model next_version(const univsa::vsa::Model& model,
                                univsa::Rng& rng);

/// The pool's samples as the value vectors the batch APIs take.
std::vector<std::vector<std::uint16_t>> pool_values(
    const univsa::data::Dataset& pool);

/// Runs the corruption self-check for `model` on `values`; a check that
/// accepts a corrupted answer makes the run incorrect.
void self_check(const univsa::vsa::Model& model,
                const std::vector<std::uint16_t>& values, univsa::Rng& rng,
                Result& result);

}  // namespace perfbench
