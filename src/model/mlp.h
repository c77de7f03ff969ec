#ifndef OVERGEN_MODEL_MLP_H
#define OVERGEN_MODEL_MLP_H

/**
 * @file
 * A small multi-layer perceptron trained by per-sample SGD with
 * momentum, used by the component-level FPGA resource model (paper
 * §V-D: a 3-layer MLP trained on out-of-context synthesis results).
 * Self-contained: feature standardization and log-scaled targets are
 * handled internally.
 */

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"

namespace overgen::model {

/** Training hyperparameters. Every training sample is one SGD step
 * (there are no mini-batches). */
struct MlpTrainConfig
{
    int epochs = 160;
    /** Step size of epoch 0; epoch e uses learningRate / (1 + 0.02e). */
    double learningRate = 0.004;
    double momentum = 0.9;
    /** Fraction of data held out for validation (paper: 80/10/10). */
    double validationFraction = 0.1;
};

/** A dense feed-forward network with ReLU hidden activations. */
class Mlp
{
  public:
    /**
     * @param input_dim   feature dimensionality
     * @param hidden      hidden-layer widths (the paper's 3-layer MLP
     *                    corresponds to two hidden layers)
     * @param output_dim  target dimensionality
     * @param seed        deterministic weight initialization
     */
    Mlp(int input_dim, std::vector<int> hidden, int output_dim,
        uint64_t seed = 1);

    /**
     * Fit on @p features / @p targets. Targets are trained in
     * log1p-space internally (resource counts span orders of
     * magnitude). @return final validation RMSE in target space
     * (relative, see validationRelativeError()).
     */
    double train(const std::vector<std::vector<double>> &features,
                 const std::vector<std::vector<double>> &targets,
                 const MlpTrainConfig &config = {});

    /** Predict targets (inverse-transformed to resource space). */
    std::vector<double> predict(std::span<const double> features) const;

    /** Mean relative |pred-true|/(true+1) over the validation split. */
    double validationRelativeError() const { return valError; }

    /** @return number of trainable parameters. */
    int parameterCount() const;

    /** Momentum updates (weights and biases) the last train() took
     * on the integer subnormal path (see decaySubnormal()). */
    uint64_t integerDecays() const { return integerDecayCount; }

  private:
    struct Layer
    {
        int in = 0;
        int out = 0;
        std::vector<double> weight;    //!< out x in, row-major
        std::vector<double> bias;      //!< out
        std::vector<double> weightVel; //!< momentum buffers
        std::vector<double> biasVel;
    };

    /** Forward pass: @p acts[0] holds the input on entry; on return
     * acts[l + 1] holds layer l's output (acts is resized to fit,
     * reusing its buffers across calls). */
    void forward(std::vector<std::vector<double>> &acts) const;
    void standardize(std::vector<double> &features) const;

    std::vector<Layer> layers;
    std::vector<double> featMean;
    std::vector<double> featStd;
    std::vector<double> targetMean;  //!< in log1p space
    std::vector<double> targetStd;
    double valError = 0.0;
    uint64_t integerDecayCount = 0;
    Rng rng;
};

/**
 * @p momentum * @p v, rounded to nearest-even exactly as the hardware
 * multiply rounds it, computed in integer arithmetic so that it never
 * takes the slow subnormal path of the floating-point unit.
 * Preconditions: @p v is subnormal and 0.5 <= @p momentum < 1. The
 * result is subnormal or a signed zero.
 */
double decaySubnormal(double momentum, double v);

} // namespace overgen::model

#endif // OVERGEN_MODEL_MLP_H
