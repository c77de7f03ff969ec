#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "adg/builders.h"
#include "common/hash.h"
#include "model/oracle.h"
#include "model/resource_model.h"

namespace overgen::model {
namespace {

/** A small, fast-to-train model shared by the tests in this file. */
const FpgaResourceModel &
testModel()
{
    static FpgaResourceModel model = [] {
        ResourceModelConfig config;
        config.peSamples = 1200;
        config.switchSamples = 600;
        config.inPortSamples = 400;
        config.outPortSamples = 400;
        config.train.epochs = 60;
        return FpgaResourceModel::train(config);
    }();
    return model;
}

/**
 * Digest of nodeResources() over a fixed, seeded set of PE, switch
 * and port nodes: every predicted field's bit pattern, in order.
 */
uint64_t
predictionDigest(const FpgaResourceModel &model)
{
    Rng rng(2024);
    const auto &ops = allOpcodes();
    const DataType types[] = { DataType::I8,  DataType::I16,
                               DataType::I32, DataType::I64,
                               DataType::F32, DataType::F64 };
    hash::Fnv64 digest;
    for (int i = 0; i < 20000; ++i) {
        adg::Node node;
        int radix = static_cast<int>(rng.nextRange(2, 10));
        switch (rng.nextBelow(4)) {
          case 0: {
            node.kind = adg::NodeKind::Pe;
            adg::PeSpec pe;
            pe.datapathBytes = 8 << rng.nextBelow(4);
            pe.maxDelayFifoDepth = static_cast<int>(rng.nextRange(2, 16));
            pe.controlLut = rng.nextBool();
            int caps = static_cast<int>(rng.nextRange(1, 12));
            for (int c = 0; c < caps; ++c) {
                pe.capabilities.insert({ ops[rng.nextBelow(ops.size())],
                                         types[rng.nextBelow(6)] });
            }
            node.spec = pe;
            break;
          }
          case 1:
            node.kind = adg::NodeKind::Switch;
            node.spec = adg::SwitchSpec{ 8 << rng.nextBelow(4) };
            break;
          default: {
            node.kind = rng.nextBool() ? adg::NodeKind::InPort
                                       : adg::NodeKind::OutPort;
            adg::PortSpec port;
            port.widthBytes = 4 << rng.nextBelow(5);
            port.fifoDepth = static_cast<int>(rng.nextRange(2, 32));
            port.padding = rng.nextBool();
            port.statedStream = rng.nextBool();
            node.spec = port;
            break;
          }
        }
        Resources r = model.nodeResources(node, radix);
        for (double field : { r.lut, r.ff, r.bram, r.dsp })
            digest.mix(std::bit_cast<uint64_t>(field));
    }
    return digest.value();
}

/** Pin a trained model bit for bit: the four validation errors'
 * bit patterns and the prediction digest. */
void
expectPinned(const FpgaResourceModel &model, uint64_t pe, uint64_t sw,
             uint64_t in_port, uint64_t out_port, uint64_t digest)
{
    EXPECT_EQ(std::bit_cast<uint64_t>(model.peError()), pe);
    EXPECT_EQ(std::bit_cast<uint64_t>(model.switchError()), sw);
    EXPECT_EQ(std::bit_cast<uint64_t>(model.inPortError()), in_port);
    EXPECT_EQ(std::bit_cast<uint64_t>(model.outPortError()), out_port);
    EXPECT_EQ(predictionDigest(model), digest);
}

// Training must stay bit-identical: the DSE prices every candidate
// with these weights, so one flipped bit can change a trajectory.
TEST(ResourceModel, ReducedConfigPinned)
{
    expectPinned(testModel(), 0x3fb4b7b1e22de74aull, 0x3f7eccff58f0fe44ull,
                 0x3f9cfb1858c34f13ull, 0x3f9a37a9066af51eull,
                 0x843720109679a83aull);
}

TEST(ResourceModel, DefaultModelPinned)
{
    expectPinned(FpgaResourceModel::defaultModel(), 0x3faf36717642a8e0ull,
                 0x3f62b9feec906a2cull, 0x3f9075b715365897ull,
                 0x3f91478706a9cc48ull, 0xc37b79eaaadbf4cbull);
}

TEST(ResourceModel, ValidationErrorsReasonable)
{
    const auto &model = testModel();
    EXPECT_LT(model.peError(), 0.35);
    EXPECT_LT(model.switchError(), 0.35);
    EXPECT_LT(model.inPortError(), 0.35);
    EXPECT_LT(model.outPortError(), 0.35);
}

TEST(ResourceModel, PePredictionTracksOracle)
{
    const auto &model = testModel();
    adg::Node node;
    node.kind = adg::NodeKind::Pe;
    adg::PeSpec pe;
    pe.capabilities = adg::intCapabilities(DataType::I64);
    pe.datapathBytes = 32;
    node.spec = pe;
    Resources truth = synthesizeNode(node, 3);
    Resources pred = model.nodeResources(node, 3);
    EXPECT_NEAR(pred.lut, truth.lut, truth.lut * 0.5);
    EXPECT_GT(pred.lut, 0.0);
}

TEST(ResourceModel, ModelIsPessimisticOnAverage)
{
    // §V-D: the OOC-trained model overestimates post-PnR results.
    const auto &model = testModel();
    Rng rng(77);
    double pred_sum = 0.0, truth_sum = 0.0;
    for (int i = 0; i < 50; ++i) {
        adg::Node node;
        node.kind = adg::NodeKind::Switch;
        node.spec = adg::SwitchSpec{ 8 << rng.nextBelow(4) };
        int radix = static_cast<int>(rng.nextRange(2, 8));
        pred_sum += model.nodeResources(node, radix).lut;
        truth_sum += synthesizeNode(node, radix).lut;
    }
    EXPECT_GT(pred_sum, truth_sum);
}

TEST(ResourceModel, EnginesUseExactCharacterization)
{
    const auto &model = testModel();
    adg::Node node;
    node.kind = adg::NodeKind::Dma;
    node.spec = adg::DmaSpec{ 32, true, 16 };
    Resources pred = model.nodeResources(node, 2);
    Resources truth = synthesizeNode(node, 2);
    // Exhaustively characterized: exact up to the pessimism factor.
    EXPECT_NEAR(pred.lut, truth.lut * 1.06, 1e-6);
}

TEST(ResourceModel, TileResourcesSumNodes)
{
    const auto &model = testModel();
    adg::MeshConfig config;
    config.rows = 2;
    config.cols = 2;
    config.numPes = 2;
    config.numInPorts = 2;
    config.numOutPorts = 1;
    config.peCapabilities = adg::intCapabilities(DataType::I64);
    adg::Adg tile = adg::buildMeshTile(config);
    Resources total = model.tileResources(tile);
    EXPECT_GT(total.lut, 0.0);
    auto breakdown = model.tileBreakdown(tile);
    double sum = breakdown.pe.lut + breakdown.network.lut +
                 breakdown.ports.lut + breakdown.spad.lut +
                 breakdown.dma.lut;
    EXPECT_NEAR(sum, total.lut, total.lut * 1e-9);
}

TEST(ResourceModel, SystemAddsCoresAndUncore)
{
    const auto &model = testModel();
    adg::SysAdg design;
    adg::MeshConfig config;
    config.rows = 2;
    config.cols = 2;
    config.numPes = 2;
    config.numInPorts = 2;
    config.numOutPorts = 1;
    config.peCapabilities = adg::intCapabilities(DataType::I64);
    design.adg = adg::buildMeshTile(config);
    design.sys.numTiles = 2;
    Resources two_tiles = model.systemResources(design);
    design.sys.numTiles = 4;
    Resources four_tiles = model.systemResources(design);
    EXPECT_GT(four_tiles.lut, two_tiles.lut * 1.5);
    EXPECT_GT(two_tiles.lut, 2.0 * model.tileResources(design.adg).lut);
}

TEST(ResourceModel, GeneralSystemNearlyFillsDevice)
{
    // Paper Q1: the general overlay fits at most 4 tiles on the VCU9P.
    const auto &model = testModel();
    adg::SysAdg design;
    design.adg = adg::buildGeneralOverlayTile();
    design.sys.numTiles = 4;
    design.sys.l2Banks = 4;
    design.sys.nocBytes = 32;
    FpgaDevice device = FpgaDevice::xcvu9p();
    double util =
        device.worstUtilization(model.systemResources(design));
    EXPECT_GT(util, 0.7);
    design.sys.numTiles = 6;
    EXPECT_GT(device.worstUtilization(model.systemResources(design)),
              1.0);
}

TEST(ResourceModel, FeatureExtraction)
{
    adg::PeSpec pe;
    pe.capabilities = { { Opcode::Mul, DataType::F32 },
                        { Opcode::Add, DataType::I64 },
                        { Opcode::Div, DataType::F64 } };
    pe.datapathBytes = 16;
    auto features = peFeatures(pe);
    EXPECT_EQ(features[0], 16.0);  // datapath
    EXPECT_EQ(features[1], 1.0);   // int caps
    EXPECT_EQ(features[2], 2.0);   // float caps
    EXPECT_EQ(features[3], 1.0);   // div/sqrt caps
    EXPECT_EQ(features[4], 1.0);   // mul caps
}

TEST(Resources, ArithmeticOperators)
{
    Resources a{ 10, 20, 1, 2 };
    Resources b{ 5, 10, 1, 0 };
    Resources sum = a + b;
    EXPECT_EQ(sum.lut, 15.0);
    EXPECT_EQ(sum.ff, 30.0);
    Resources scaled = a * 2.0;
    EXPECT_EQ(scaled.dsp, 4.0);
}

TEST(Resources, DeviceFitChecks)
{
    FpgaDevice device = FpgaDevice::xcvu9p();
    Resources half = device.total * 0.5;
    EXPECT_TRUE(device.fits(half));
    EXPECT_FALSE(device.fits(device.total * 1.01));
    EXPECT_NEAR(device.worstUtilization(half), 0.5, 1e-9);
}

} // namespace
} // namespace overgen::model
