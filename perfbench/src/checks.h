// Output checks made apart from the program under test.
//
// oracle_predict is an independent, deliberately naive transcription of
// the paper's Eq. 1–4 over the model's public vector sets (importance
// mask, value tables, kernel bits, feature and class vectors): DVP lookup,
// BiConv with sgn(0) = +1, XNOR binding with the feature vectors and
// majority bundling (ties to +1), then Θ-voter dot-product similarity
// with the lowest-index argmax. It shares no code with the library's
// inference paths.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "univsa/vsa/model.h"

namespace perfbench {

univsa::vsa::Prediction oracle_predict(const univsa::vsa::Model& model,
                                       const std::vector<std::uint16_t>& values);

/// Properties every answer of a model with `config` must meet: C scores,
/// |s| <= Θ·W·L, s ≡ Θ·W·L (mod 2), label = lowest-index argmax.
/// Returns "" when they hold, else what failed.
std::string check_properties(const univsa::vsa::ModelConfig& config,
                             const univsa::vsa::Prediction& answer);

/// Bit-for-bit equality of label and every score. "" when equal.
std::string check_same(const univsa::vsa::Prediction& expected,
                       const univsa::vsa::Prediction& answer);

/// Both checks above: the answer's properties, then equality with the
/// expected answer of the model version resolved at submit.
std::string check_answer(const univsa::vsa::ModelConfig& config,
                         const univsa::vsa::Prediction& expected,
                         const univsa::vsa::Prediction& answer);

/// Feeds three corrupted answers (one flipped score bit, a wrong label,
/// the answer of another model version) to check_answer and returns ""
/// only if each one is rejected. `v1` and `v2` are two versions of one
/// tenant that answer `values` differently.
std::string checks_reject_corruption(const univsa::vsa::Model& v1,
                                     const univsa::vsa::Model& v2,
                                     const std::vector<std::uint16_t>& values);

}  // namespace perfbench
