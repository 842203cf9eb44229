// Each output check of the benchmark rejects a corrupted answer, and the
// independent Eq. 1–4 oracle agrees with the reference backend.
#include <gtest/gtest.h>

#include "checks.h"
#include "univsa/data/benchmarks.h"
#include "univsa/runtime/backend.h"
#include "workloads.h"

namespace {

using perfbench::check_answer;
using univsa::vsa::Prediction;

struct Fixture {
  univsa::vsa::Model v1;
  univsa::vsa::Model v2;
  std::vector<std::uint16_t> values;
};

Fixture make(const char* task) {
  const auto& benchmark = univsa::data::find_benchmark(task);
  univsa::Rng rng(11);
  Fixture f{perfbench::random_model(benchmark, 3), {}, {}};
  f.v2 = perfbench::next_version(f.v1, rng);
  f.values = perfbench::sample_pool(benchmark, 3, 4).values(0);
  return f;
}

class ChecksTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ChecksTest, OracleMatchesReferenceBackend) {
  const Fixture f = make(GetParam());
  univsa::runtime::ReferenceBackend reference(f.v1);
  const Prediction expected = reference.predict(f.values);
  EXPECT_EQ(perfbench::check_same(expected, perfbench::oracle_predict(f.v1, f.values)), "");
  EXPECT_EQ(check_answer(f.v1.config(), expected, expected), "");
}

TEST_P(ChecksTest, RejectsFlippedScoreBit) {
  const Fixture f = make(GetParam());
  const Prediction good = perfbench::oracle_predict(f.v1, f.values);
  for (std::size_t c = 0; c < good.scores.size(); ++c) {
    for (int bit : {0, 1, 5}) {
      Prediction bad = good;
      bad.scores[c] ^= 1ll << bit;
      EXPECT_NE(check_answer(f.v1.config(), good, bad), "")
          << "class " << c << " bit " << bit;
    }
  }
  // The property check alone catches a low-bit flip (parity).
  Prediction bad = good;
  bad.scores[0] ^= 1;
  EXPECT_NE(perfbench::check_properties(f.v1.config(), bad), "");
}

TEST_P(ChecksTest, RejectsWrongLabel) {
  const Fixture f = make(GetParam());
  const Prediction good = perfbench::oracle_predict(f.v1, f.values);
  Prediction bad = good;
  bad.label = (good.label + 1) % static_cast<int>(good.scores.size());
  EXPECT_NE(check_answer(f.v1.config(), good, bad), "");
  EXPECT_NE(perfbench::check_properties(f.v1.config(), bad), "");
}

TEST_P(ChecksTest, RejectsAnotherVersionsAnswer) {
  const Fixture f = make(GetParam());
  const Prediction good = perfbench::oracle_predict(f.v1, f.values);
  const Prediction stale = perfbench::oracle_predict(f.v2, f.values);
  EXPECT_NE(check_answer(f.v1.config(), good, stale), "");
  EXPECT_EQ(perfbench::checks_reject_corruption(f.v1, f.v2, f.values), "");
}

INSTANTIATE_TEST_SUITE_P(Table1AndZoo, ChecksTest,
                         ::testing::Values("EEGMMI", "BCI-III-V", "CHB-B",
                                           "CHB-IB", "ISOLET", "HAR", "KWS",
                                           "ANOMALY", "GESTURE"));

}  // namespace
