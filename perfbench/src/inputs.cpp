#include "workloads.h"

#include "checks.h"
#include "univsa/data/synthetic.h"
#include "univsa/tensor/tensor.h"

namespace perfbench {

namespace uv = univsa;

uv::data::Dataset sample_pool(const uv::data::Benchmark& benchmark,
                              std::uint64_t seed, std::size_t count) {
  uv::data::SyntheticSpec spec = benchmark.spec;
  spec.seed = mix(seed, spec.seed);
  spec.train_count = spec.classes;  // the generator wants a train split
  spec.test_count = count;
  return uv::data::generate(spec).test;
}

uv::vsa::Model random_model(const uv::data::Benchmark& benchmark,
                            std::uint64_t seed) {
  uv::Rng rng(mix(seed, benchmark.spec.seed + 17));
  return uv::vsa::Model::random(benchmark.config, rng);
}

uv::vsa::Model next_version(const uv::vsa::Model& model, uv::Rng& rng) {
  const auto& cfg = model.config();
  return model.with_class_vectors(
      uv::Tensor::rand_sign({cfg.Theta * cfg.C, cfg.sample_dim()}, rng));
}

std::vector<std::vector<std::uint16_t>> pool_values(
    const uv::data::Dataset& pool) {
  std::vector<std::vector<std::uint16_t>> values;
  values.reserve(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    values.push_back(pool.values(i));
  }
  return values;
}

void self_check(const uv::vsa::Model& model,
                const std::vector<std::uint16_t>& values, uv::Rng& rng,
                Result& result) {
  const std::string why =
      checks_reject_corruption(model, next_version(model, rng), values);
  if (!why.empty()) result.check_failed("self-check: " + why);
}

}  // namespace perfbench
