#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/hash.h"
#include "model/mlp.h"

namespace overgen::model {
namespace {

TEST(Mlp, LearnsLinearFunction)
{
    Rng rng(3);
    std::vector<std::vector<double>> x, y;
    for (int i = 0; i < 600; ++i) {
        double a = rng.nextDouble() * 10.0;
        double b = rng.nextDouble() * 10.0;
        x.push_back({ a, b });
        y.push_back({ 3.0 * a + 2.0 * b + 5.0 });
    }
    Mlp mlp(2, { 16, 8 }, 1, 7);
    double err = mlp.train(x, y);
    EXPECT_LT(err, 0.1);
    auto pred = mlp.predict(std::vector<double>{ 4.0, 2.0 });
    EXPECT_NEAR(pred[0], 21.0, 3.0);
}

TEST(Mlp, LearnsNonlinearFunction)
{
    Rng rng(5);
    std::vector<std::vector<double>> x, y;
    for (int i = 0; i < 1200; ++i) {
        double a = rng.nextDouble() * 8.0;
        double b = rng.nextDouble() * 8.0;
        x.push_back({ a, b });
        y.push_back({ a * b + a * a });
    }
    Mlp mlp(2, { 32, 16 }, 1, 11);
    double err = mlp.train(x, y);
    EXPECT_LT(err, 0.15);
}

TEST(Mlp, MultiOutput)
{
    Rng rng(9);
    std::vector<std::vector<double>> x, y;
    for (int i = 0; i < 600; ++i) {
        double a = rng.nextDouble() * 5.0 + 1.0;
        x.push_back({ a });
        y.push_back({ 10.0 * a, 100.0 * a });
    }
    Mlp mlp(1, { 16, 8 }, 2, 3);
    mlp.train(x, y);
    auto pred = mlp.predict(std::vector<double>{ 3.0 });
    ASSERT_EQ(pred.size(), 2u);
    EXPECT_NEAR(pred[0], 30.0, 8.0);
    EXPECT_NEAR(pred[1], 300.0, 60.0);
}

TEST(Mlp, DeterministicTraining)
{
    std::vector<std::vector<double>> x, y;
    for (int i = 0; i < 100; ++i) {
        x.push_back({ static_cast<double>(i) });
        y.push_back({ 2.0 * i });
    }
    Mlp a(1, { 8 }, 1, 42);
    Mlp b(1, { 8 }, 1, 42);
    a.train(x, y);
    b.train(x, y);
    auto pa = a.predict(std::vector<double>{ 50.0 });
    auto pb = b.predict(std::vector<double>{ 50.0 });
    EXPECT_DOUBLE_EQ(pa[0], pb[0]);
}

// A training whose dead ReLU units decay their momentum through the
// subnormal range: the weights, and so the validation error and every
// prediction, must come out bit for bit as pinned.
TEST(Mlp, TrainingPinned)
{
    Rng rng(5);
    std::vector<std::vector<double>> x, y;
    for (int i = 0; i < 1200; ++i) {
        double a = rng.nextDouble() * 8.0;
        double b = rng.nextDouble() * 8.0;
        x.push_back({ a, b });
        y.push_back({ a * b + a * a, a + 3.0 * b });
    }
    Mlp mlp(2, { 32, 16 }, 2, 11);
    double err = mlp.train(x, y);
    hash::Fnv64 digest;
    for (double a = 0.0; a < 8.0; a += 0.25) {
        for (double b = 0.0; b < 8.0; b += 0.25) {
            for (double v : mlp.predict(std::vector<double>{ a, b }))
                digest.mix(std::bit_cast<uint64_t>(v));
        }
    }
    EXPECT_EQ(std::bit_cast<uint64_t>(err), 0x3f89311de2d1f256ull);
    EXPECT_EQ(digest.value(), 0xdb9cbb22c4817622ull);
    // The pin covers the integer subnormal-decay path.
    EXPECT_GT(mlp.integerDecays(), 0u);
}

/** Bit pattern of @p v. */
uint64_t
bits(double v)
{
    return std::bit_cast<uint64_t>(v);
}

/** The subnormal with mantissa @p m (zero for m == 0). */
double
subnormal(uint64_t m, bool negative)
{
    return std::bit_cast<double>((negative ? 1ull << 63 : 0) | m);
}

const double kMomenta[] = { 0.5, 0.75, 0.9, 0.99 };

TEST(MlpSubnormalDecay, MatchesHardwareForSmallMantissas)
{
    for (double momentum : kMomenta) {
        for (bool negative : { false, true }) {
            for (uint64_t m = 1; m <= (1u << 16); ++m) {
                double v = subnormal(m, negative);
                ASSERT_EQ(bits(decaySubnormal(momentum, v)),
                          bits(momentum * v))
                    << "momentum " << momentum << " m " << m;
            }
        }
    }
}

TEST(MlpSubnormalDecay, MatchesHardwareForSampledMantissas)
{
    Rng rng(17);
    for (double momentum : kMomenta) {
        for (int n = 0; n < 200000; ++n) {
            uint64_t m = 1 + rng.nextBelow((1ull << 52) - 1);
            double v = subnormal(m, rng.nextBool());
            ASSERT_EQ(bits(decaySubnormal(momentum, v)),
                      bits(momentum * v))
                << "momentum " << momentum << " m " << m;
        }
    }
}

TEST(MlpSubnormalDecay, RoundsExactTiesToEven)
{
    // 0.5 * m is exactly halfway between two subnormals for odd m,
    // and 0.75 * m is for m = 2 mod 4: ties go to the even mantissa.
    for (bool negative : { false, true }) {
        auto decayed = [negative](double momentum, uint64_t m) {
            return bits(decaySubnormal(momentum, subnormal(m, negative)));
        };
        EXPECT_EQ(decayed(0.5, 1), bits(subnormal(0, negative)));
        EXPECT_EQ(decayed(0.5, 3), bits(subnormal(2, negative)));
        EXPECT_EQ(decayed(0.5, 5), bits(subnormal(2, negative)));
        EXPECT_EQ(decayed(0.75, 2), bits(subnormal(2, negative)));
        EXPECT_EQ(decayed(0.75, 6), bits(subnormal(4, negative)));
        // Odd m of every width up to the largest subnormal mantissa.
        for (uint64_t m = 1; m < (1ull << 52); m = 2 * m + 1) {
            EXPECT_EQ(decayed(0.5, m), bits(0.5 * subnormal(m, negative)))
                << m;
            if (2 * m < (1ull << 52)) {
                EXPECT_EQ(decayed(0.75, 2 * m),
                          bits(0.75 * subnormal(2 * m, negative)))
                    << m;
            }
        }
    }
}

TEST(Mlp, PredictionsNonNegative)
{
    // Resource counts cannot be negative: predictions are clamped by
    // the log1p/expm1 transform.
    std::vector<std::vector<double>> x, y;
    for (int i = 0; i < 200; ++i) {
        x.push_back({ static_cast<double>(i % 10) });
        y.push_back({ 0.1 });
    }
    Mlp mlp(1, { 8 }, 1, 1);
    mlp.train(x, y);
    for (double v = -5.0; v < 20.0; v += 1.0) {
        auto pred = mlp.predict(std::vector<double>{ v });
        EXPECT_GE(pred[0], 0.0);
    }
}

TEST(Mlp, ParameterCount)
{
    Mlp mlp(3, { 4, 2 }, 1, 1);
    // (3*4+4) + (4*2+2) + (2*1+1) = 16 + 10 + 3 = 29.
    EXPECT_EQ(mlp.parameterCount(), 29);
}

TEST(MlpDeathTest, PredictBeforeTrainPanics)
{
    Mlp mlp(2, { 4 }, 1, 1);
    EXPECT_DEATH(mlp.predict(std::vector<double>{ 1.0, 2.0 }),
                 "predict before train");
}

TEST(MlpDeathTest, DimensionMismatchPanics)
{
    Mlp mlp(2, { 4 }, 1, 1);
    std::vector<std::vector<double>> x{ { 1.0 } };
    std::vector<std::vector<double>> y{ { 1.0 } };
    EXPECT_DEATH(mlp.train(x, y), "feature dim mismatch");
}

} // namespace
} // namespace overgen::model
