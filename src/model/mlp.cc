#include "model/mlp.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.h"

namespace overgen::model {

Mlp::Mlp(int input_dim, std::vector<int> hidden, int output_dim,
         uint64_t seed)
    : rng(seed)
{
    OG_ASSERT(input_dim > 0 && output_dim > 0, "bad MLP shape");
    std::vector<int> dims;
    dims.push_back(input_dim);
    for (int h : hidden)
        dims.push_back(h);
    dims.push_back(output_dim);
    for (size_t i = 0; i + 1 < dims.size(); ++i) {
        Layer layer;
        layer.in = dims[i];
        layer.out = dims[i + 1];
        layer.weight.resize(static_cast<size_t>(layer.in) * layer.out);
        layer.bias.assign(layer.out, 0.0);
        layer.weightVel.assign(layer.weight.size(), 0.0);
        layer.biasVel.assign(layer.out, 0.0);
        // He initialization for ReLU layers.
        double scale = std::sqrt(2.0 / layer.in);
        for (double &w : layer.weight)
            w = rng.nextGaussian() * scale;
        layers.push_back(std::move(layer));
    }
}

int
Mlp::parameterCount() const
{
    int count = 0;
    for (const Layer &layer : layers)
        count += static_cast<int>(layer.weight.size() +
                                  layer.bias.size());
    return count;
}

void
Mlp::standardize(std::vector<double> &features) const
{
    for (size_t i = 0; i < features.size(); ++i)
        features[i] = (features[i] - featMean[i]) / featStd[i];
}

void
Mlp::forward(std::vector<std::vector<double>> &acts) const
{
    acts.resize(layers.size() + 1);
    for (size_t l = 0; l < layers.size(); ++l) {
        const Layer &layer = layers[l];
        const std::vector<double> &current = acts[l];
        std::vector<double> &next = acts[l + 1];
        next.resize(layer.out);
        bool last = (l + 1 == layers.size());
        for (int o = 0; o < layer.out; ++o) {
            double sum = layer.bias[o];
            const double *row =
                &layer.weight[static_cast<size_t>(o) * layer.in];
            for (int i = 0; i < layer.in; ++i)
                sum += row[i] * current[i];
            next[o] = last ? sum : std::max(sum, 0.0);
        }
    }
}

double
decaySubnormal(double momentum, double v)
{
    // v = ±m * 2^-1074 and momentum = M * 2^-53 with M in [2^52, 2^53),
    // so the exact product is ±(m * M / 2^53) * 2^-1074: below the
    // smallest normal, where the representable values are the integer
    // multiples of 2^-1074. Rounding m * M / 2^53 to an integer, ties
    // to even, is the hardware's rounding of the product.
    constexpr uint64_t kSign = 1ull << 63;
    constexpr uint64_t kMantissa = (1ull << 52) - 1;
    uint64_t bits = std::bit_cast<uint64_t>(v);
    uint64_t m = bits & kMantissa;
    uint64_t big_m =
        (std::bit_cast<uint64_t>(momentum) & kMantissa) | (1ull << 52);
    unsigned __int128 product = static_cast<unsigned __int128>(m) * big_m;
    uint64_t q = static_cast<uint64_t>(product >> 53);
    uint64_t rem = static_cast<uint64_t>(product) & ((1ull << 53) - 1);
    constexpr uint64_t kHalf = 1ull << 52;
    if (rem > kHalf || (rem == kHalf && (q & 1) != 0))
        ++q;
    return std::bit_cast<double>((bits & kSign) | q);
}

double
Mlp::train(const std::vector<std::vector<double>> &features,
           const std::vector<std::vector<double>> &targets,
           const MlpTrainConfig &config)
{
    OG_ASSERT(features.size() == targets.size(), "feature/target size");
    OG_ASSERT(!features.empty(), "empty training set");
    size_t n = features.size();
    size_t input_dim = features[0].size();
    OG_ASSERT(input_dim == static_cast<size_t>(layers.front().in),
              "feature dim mismatch");

    // Standardization statistics over the full set.
    featMean.assign(input_dim, 0.0);
    featStd.assign(input_dim, 0.0);
    for (const auto &f : features) {
        for (size_t i = 0; i < input_dim; ++i)
            featMean[i] += f[i];
    }
    for (size_t i = 0; i < input_dim; ++i)
        featMean[i] /= static_cast<double>(n);
    for (const auto &f : features) {
        for (size_t i = 0; i < input_dim; ++i) {
            double d = f[i] - featMean[i];
            featStd[i] += d * d;
        }
    }
    for (size_t i = 0; i < input_dim; ++i) {
        featStd[i] = std::sqrt(featStd[i] / static_cast<double>(n));
        if (featStd[i] < 1e-9)
            featStd[i] = 1.0;
    }

    // Target statistics in log1p space (resource counts span orders of
    // magnitude; standardized log targets keep gradients balanced).
    size_t output_dim = targets[0].size();
    targetMean.assign(output_dim, 0.0);
    targetStd.assign(output_dim, 0.0);
    for (const auto &t : targets) {
        for (size_t o = 0; o < output_dim; ++o)
            targetMean[o] += std::log1p(std::max(t[o], 0.0));
    }
    for (size_t o = 0; o < output_dim; ++o)
        targetMean[o] /= static_cast<double>(n);
    for (const auto &t : targets) {
        for (size_t o = 0; o < output_dim; ++o) {
            double d = std::log1p(std::max(t[o], 0.0)) - targetMean[o];
            targetStd[o] += d * d;
        }
    }
    for (size_t o = 0; o < output_dim; ++o) {
        targetStd[o] =
            std::sqrt(targetStd[o] / static_cast<double>(n));
        if (targetStd[o] < 1e-9)
            targetStd[o] = 1.0;
    }

    // Shuffle and split train/validation.
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    for (size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.nextBelow(i)]);
    size_t val_count = static_cast<size_t>(
        static_cast<double>(n) * config.validationFraction);
    val_count = std::min(val_count, n - 1);
    size_t train_count = n - val_count;

    // Standardized inputs and transformed targets, once per sample.
    std::vector<std::vector<double>> train_x(train_count);
    std::vector<std::vector<double>> train_y(train_count);
    for (size_t idx = 0; idx < train_count; ++idx) {
        train_x[idx] = features[order[idx]];
        standardize(train_x[idx]);
        std::vector<double> &y = train_y[idx];
        y = targets[order[idx]];
        for (size_t o = 0; o < y.size(); ++o) {
            y[o] = (std::log1p(std::max(y[o], 0.0)) - targetMean[o]) /
                   targetStd[o];
        }
    }

    // One momentum step: vel = momentum * vel - step; param += vel.
    // Dead ReLU units leave parameters whose step stays ±0 while their
    // velocities decay by `momentum` through the subnormal range,
    // where every hardware multiply is a slow microcode assist. There
    // decaySubnormal() computes the same product in integer
    // arithmetic (DESIGN.md "Resource-model training"): a nonzero
    // product p gives p - (±0) == p, and adding a subnormal p to a
    // parameter of magnitude at least 2^-960 rounds back to the
    // parameter (half an ulp of it is at least 2^-1014). A zero
    // product, whose difference takes its sign from the step, and a
    // smaller parameter take the plain expression.
    const bool integer_decay =
        config.momentum >= 0.5 && config.momentum < 1.0;
    integerDecayCount = 0;
    auto momentum_step = [&](double &param, double &vel, double step) {
        constexpr uint64_t kExponent = 0x7ffull << 52;
        uint64_t v_bits = std::bit_cast<uint64_t>(vel);
        bool subnormal = (v_bits & kExponent) == 0 && (v_bits << 1) != 0;
        if (step == 0.0 && subnormal && integer_decay) {
            double p = decaySubnormal(config.momentum, vel);
            if (p != 0.0) {
                ++integerDecayCount;
                vel = p;
                if (!(std::abs(param) >= 0x1p-960))
                    param += p;
                return;
            }
        }
        vel = config.momentum * vel - step;
        param += vel;
    };

    std::vector<std::vector<double>> acts(layers.size() + 1);
    std::vector<double> grad, next_grad;
    for (int epoch = 0; epoch < config.epochs; ++epoch) {
        // Decaying learning rate.
        double lr = config.learningRate /
                    (1.0 + 0.02 * static_cast<double>(epoch));
        for (size_t idx = 0; idx < train_count; ++idx) {
            acts[0] = train_x[idx];
            forward(acts);
            const std::vector<double> &pred = acts.back();
            const std::vector<double> &y = train_y[idx];

            // Backward pass: MSE gradient, clipped for stability.
            grad.resize(pred.size());
            for (size_t o = 0; o < pred.size(); ++o) {
                grad[o] = 2.0 * (pred[o] - y[o]) /
                          static_cast<double>(pred.size());
                grad[o] = std::clamp(grad[o], -4.0, 4.0);
            }

            for (int l = static_cast<int>(layers.size()) - 1; l >= 0;
                 --l) {
                Layer &layer = layers[l];
                const std::vector<double> &in_act = acts[l];
                const std::vector<double> &out_act = acts[l + 1];
                next_grad.assign(layer.in, 0.0);
                bool last = (l + 1 == static_cast<int>(layers.size()));
                for (int o = 0; o < layer.out; ++o) {
                    double g = grad[o];
                    if (!last && out_act[o] <= 0.0)
                        g = 0.0;  // ReLU gate
                    // A zero g adds ±0 to next_grad for every finite
                    // weight, which changes nothing: next_grad starts
                    // at +0 and a sum is -0 only if both terms are.
                    const bool gated = (g == 0.0);
                    double *row =
                        &layer.weight[static_cast<size_t>(o) * layer.in];
                    double *vel = &layer.weightVel[
                        static_cast<size_t>(o) * layer.in];
                    for (int i = 0; i < layer.in; ++i) {
                        if (!gated || !std::isfinite(row[i]))
                            next_grad[i] += g * row[i];
                        double dw = g * in_act[i];
                        momentum_step(row[i], vel[i], lr * dw);
                    }
                    momentum_step(layer.bias[o], layer.biasVel[o], lr * g);
                }
                std::swap(grad, next_grad);
            }
        }
    }

    // Validation: mean relative error in resource space.
    double rel_sum = 0.0;
    int rel_count = 0;
    for (size_t idx = train_count; idx < n; ++idx) {
        std::vector<double> pred = predict(features[order[idx]]);
        const std::vector<double> &truth = targets[order[idx]];
        for (size_t o = 0; o < pred.size(); ++o) {
            rel_sum += std::abs(pred[o] - truth[o]) / (truth[o] + 1.0);
            ++rel_count;
        }
    }
    valError = rel_count > 0 ? rel_sum / rel_count : 0.0;
    return valError;
}

std::vector<double>
Mlp::predict(std::span<const double> features) const
{
    OG_ASSERT(!featMean.empty(), "predict before train");
    std::vector<std::vector<double>> acts(1);
    acts[0].assign(features.begin(), features.end());
    standardize(acts[0]);
    forward(acts);
    std::vector<double> pred = std::move(acts.back());
    for (size_t o = 0; o < pred.size(); ++o) {
        double log_val = pred[o] * targetStd[o] + targetMean[o];
        pred[o] = std::max(0.0, std::expm1(log_val));
    }
    return pred;
}

} // namespace overgen::model
