/**
 * @file
 * Shared hash helpers: the FNV-1a and splitmix64 primitives match
 * their published reference values, and every digest built on them
 * (library warm seeds, sim config digests, ADG and library
 * fingerprints, snapshot seals, component fingerprints) keeps the
 * value it had before the helpers were shared. Persisted library
 * files and snapshots carry these digests, so a change here must be
 * a deliberate, versioned one.
 */

#include <gtest/gtest.h>

#include "adg/builders.h"
#include "common/hash.h"
#include "library/service.h"
#include "library/store.h"
#include "sim/memory_system.h"
#include "sim/simulate.h"
#include "sim/snapshot.h"

namespace overgen {
namespace {

TEST(Hash, Fnv1aMatchesPublishedVectors)
{
    const uint64_t basis = 0xcbf29ce484222325ull;  // published basis
    EXPECT_EQ(hash::fnv1a("", basis), 0xcbf29ce484222325ull);
    EXPECT_EQ(hash::fnv1a("a", basis), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(hash::fnv1a("foobar", basis), 0x85944171f73967e8ull);
    // Continuing from a prefix's hash is hashing the concatenation.
    EXPECT_EQ(hash::fnv1a("bar", hash::fnv1a("foo", basis)),
              hash::fnv1a("foobar", basis));
}

TEST(Hash, TreeDigestsStartFromTheirOwnBasis)
{
    // The basis the tree's digests were built with, not the
    // published one (see kDigestBasis).
    EXPECT_EQ(hash::kDigestBasis, 1469598103934665603ull);
    EXPECT_EQ(hash::fnv1a(""), hash::kDigestBasis);
    EXPECT_EQ(hash::fnv1a("a"), (hash::kDigestBasis ^ 'a') *
                                    hash::kFnvPrime);
}

TEST(Hash, WordFnvFoldsWholeWords)
{
    hash::Fnv64 empty;
    EXPECT_EQ(empty.value(), hash::kDigestBasis);
    // A word below 256 folds in exactly like the same single byte.
    hash::Fnv64 f;
    f.mix('a');
    EXPECT_EQ(f.value(), hash::fnv1a("a"));
    // A wide word is one step, not eight byte steps.
    hash::Fnv64 wide;
    wide.mix(0x0101010101010101ull);
    EXPECT_EQ(wide.value(), (hash::kDigestBasis ^ 0x0101010101010101ull) *
                                hash::kFnvPrime);
}

TEST(Hash, Splitmix64MatchesReferenceOutputs)
{
    uint64_t state = 0;
    EXPECT_EQ(hash::splitmix64(state), 0xe220a8397b1dcdafull);
    EXPECT_EQ(hash::splitmix64(state), 0x6e789e6aa1b965f4ull);
    EXPECT_EQ(hash::splitmix64(state), 0x06c45d188009454full);
    state = 1234567;
    EXPECT_EQ(hash::splitmix64(state), 6457827717110365317ull);
    EXPECT_EQ(hash::splitmix64(state), 3203168211198807973ull);
    EXPECT_EQ(hash::splitmix64(state), 9817491932198370423ull);
    // mix64 is one step from the given state, leaving it untouched.
    EXPECT_EQ(hash::mix64(0), 0xe220a8397b1dcdafull);
    static_assert(hash::mix64(1234567) == 6457827717110365317ull);
}

// The values below were recorded before the hand-rolled copies were
// folded into common/hash.h.

TEST(HashDigests, LibraryWarmSeedIsUnchanged)
{
    EXPECT_EQ(library::LibraryService::warmSeedFor("fir", 0),
              0x27ab1e10dff811e6ull);
    EXPECT_EQ(library::LibraryService::warmSeedFor("fir", 7),
              0x4181f56e5ce8f400ull);
}

TEST(HashDigests, SimConfigDigestIsUnchanged)
{
    EXPECT_EQ(sim::configDigest(sim::SimConfig{}),
              0x425cd6835d2da60cull);
}

TEST(HashDigests, AdgAndLibraryFingerprintsAreUnchanged)
{
    adg::MeshConfig mesh;
    mesh.peCapabilities = adg::intCapabilities(DataType::I32);
    adg::SysAdg design;
    design.adg = adg::buildMeshTile(mesh);
    auto fp = design.adg.fingerprintPair(1, 2);
    EXPECT_EQ(fp.first, 0xcbae078eebdc4008ull);
    EXPECT_EQ(fp.second, 0xf06137095f8de907ull);
    auto lib = library::fingerprintDesign(design);
    EXPECT_EQ(lib.first, 0xef1d587748da6bdaull);
    EXPECT_EQ(lib.second, 0x4d0e169f35716982ull);
}

TEST(HashDigests, SnapshotAndComponentDigestsAreUnchanged)
{
    sim::Snapshot snap;
    snap.putU64(42);
    snap.putString("overgen");
    snap.seal();
    EXPECT_EQ(snap.digest(), 0x790f74dfda5329b8ull);
    sim::MemorySystem mem(adg::SystemParams{}, sim::SimConfig{});
    EXPECT_EQ(mem.quiescenceFingerprint(), 0x69d2caadcb2dda10ull);
}

} // namespace
} // namespace overgen
