#include "checks.h"

#include <cstdlib>

namespace perfbench {

using univsa::vsa::Model;
using univsa::vsa::ModelConfig;
using univsa::vsa::Prediction;

Prediction oracle_predict(const Model& model,
                          const std::vector<std::uint16_t>& values) {
  const ModelConfig& cfg = model.config();
  const std::size_t h = cfg.W;
  const std::size_t w = cfg.L;
  const std::size_t n = h * w;
  const std::size_t dh = cfg.D_H;

  // Eq. 1 with DVP: a bipolar lane per (position, channel), and whether
  // the lane exists (low-importance features only have D_L lanes).
  std::vector<int> lane(n * dh, 0);
  std::vector<char> live(n * dh, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const bool high = model.mask()[i] != 0;
    const auto& table =
        high ? model.value_table_high() : model.value_table_low();
    const std::size_t dims = high ? cfg.D_H : cfg.D_L;
    for (std::size_t d = 0; d < dims; ++d) {
      lane[i * dh + d] = table[values[i]].get(d);
      live[i * dh + d] = 1;
    }
  }

  // BiConv: same-padded D_K×D_K bipolar convolution over the D_H lanes,
  // binarized with sgn(0) = +1.
  const long k = static_cast<long>(cfg.D_K);
  const long pad = k / 2;
  std::vector<int> conv(cfg.O * n, 0);
  for (std::size_t o = 0; o < cfg.O; ++o) {
    for (long y = 0; y < static_cast<long>(h); ++y) {
      for (long x = 0; x < static_cast<long>(w); ++x) {
        long long sum = 0;
        for (long kh = 0; kh < k; ++kh) {
          for (long kw = 0; kw < k; ++kw) {
            const long sy = y + kh - pad;
            const long sx = x + kw - pad;
            if (sy < 0 || sx < 0 || sy >= static_cast<long>(h) ||
                sx >= static_cast<long>(w)) {
              continue;
            }
            const std::size_t src =
                static_cast<std::size_t>(sy) * w + static_cast<std::size_t>(sx);
            const std::uint32_t kbits =
                model.kernel_bits()[o][static_cast<std::size_t>(kh * k + kw)];
            for (std::size_t d = 0; d < dh; ++d) {
              if (!live[src * dh + d]) continue;
              const int kv = ((kbits >> d) & 1u) ? 1 : -1;
              sum += kv * lane[src * dh + d];
            }
          }
        }
        conv[o * n + static_cast<std::size_t>(y) * w +
             static_cast<std::size_t>(x)] = sum >= 0 ? 1 : -1;
      }
    }
  }

  // Encoding: bind each channel with its feature vector, bundle by
  // majority (ties to +1).
  std::vector<int> sample(n, 0);
  for (std::size_t p = 0; p < n; ++p) {
    long long acc = 0;
    for (std::size_t o = 0; o < cfg.O; ++o) {
      acc += conv[o * n + p] * model.feature_vectors()[o].get(p);
    }
    sample[p] = acc >= 0 ? 1 : -1;
  }

  // Eq. 4: Θ voters' dot products summed per class, lowest-index argmax.
  Prediction out;
  out.scores.assign(cfg.C, 0);
  for (std::size_t theta = 0; theta < cfg.Theta; ++theta) {
    for (std::size_t c = 0; c < cfg.C; ++c) {
      const auto& cv = model.class_vectors()[theta * cfg.C + c];
      long long dot = 0;
      for (std::size_t p = 0; p < n; ++p) dot += sample[p] * cv.get(p);
      out.scores[c] += dot;
    }
  }
  out.label = 0;
  for (std::size_t c = 1; c < cfg.C; ++c) {
    if (out.scores[c] > out.scores[static_cast<std::size_t>(out.label)]) {
      out.label = static_cast<int>(c);
    }
  }
  return out;
}

std::string check_properties(const ModelConfig& config,
                             const Prediction& answer) {
  if (answer.scores.size() != config.C) return "wrong number of scores";
  const long long bound =
      static_cast<long long>(config.Theta * config.W * config.L);
  std::size_t best = 0;
  for (std::size_t c = 0; c < answer.scores.size(); ++c) {
    const long long s = answer.scores[c];
    if (std::llabs(s) > bound) return "score exceeds Theta*W*L";
    if (std::llabs(s - bound) % 2 != 0) return "score parity differs";
    if (s > answer.scores[best]) best = c;
  }
  if (answer.label != static_cast<int>(best)) {
    return "label is not the lowest-index argmax";
  }
  return "";
}

std::string check_same(const Prediction& expected, const Prediction& answer) {
  if (answer.label != expected.label) return "label differs";
  if (answer.scores != expected.scores) return "scores differ";
  return "";
}

std::string check_answer(const ModelConfig& config, const Prediction& expected,
                         const Prediction& answer) {
  std::string why = check_properties(config, answer);
  if (why.empty()) why = check_same(expected, answer);
  return why;
}

std::string checks_reject_corruption(const Model& v1, const Model& v2,
                                     const std::vector<std::uint16_t>& values) {
  const ModelConfig& cfg = v1.config();
  const Prediction good = oracle_predict(v1, values);
  if (!check_answer(cfg, good, good).empty()) {
    return "a correct answer was rejected";
  }
  Prediction flipped = good;
  flipped.scores[0] ^= 1;
  if (check_answer(cfg, good, flipped).empty()) {
    return "a flipped score bit was accepted";
  }
  Prediction relabeled = good;
  relabeled.label = (good.label + 1) % static_cast<int>(cfg.C);
  if (check_answer(cfg, good, relabeled).empty()) {
    return "a wrong label was accepted";
  }
  const Prediction other_version = oracle_predict(v2, values);
  if (check_answer(cfg, good, other_version).empty()) {
    return "another version's answer was accepted";
  }
  return "";
}

}  // namespace perfbench
