#ifndef OVERGEN_COMMON_HASH_H
#define OVERGEN_COMMON_HASH_H

/**
 * @file
 * The two non-cryptographic hash families every digest, fingerprint
 * and seed in the tree is built from:
 *
 *  - FNV-1a (64-bit): fnv1a() hashes a byte string; Fnv64 applies the
 *    same xor-then-multiply step to whole 64-bit words, which is how
 *    the state digests (configDigest, component fingerprints) absorb
 *    fields.
 *  - splitmix64 (Steele, Lea and Flood): splitmix64() steps a
 *    generator state; mix64() is the same step applied to a copy, a
 *    full-avalanche mix of one word.
 *
 * Stored and compared digests depend on these exact constants, so
 * any change here must be versioned (see tests/common/hash_test.cc).
 */

#include <cstdint>
#include <span>
#include <string_view>

namespace overgen::hash {

/**
 * The offset basis every digest in this tree starts from, and the
 * default below: the published FNV-1a basis 14695981039346656037
 * (0xcbf29ce484222325) with its last decimal digit dropped. Library
 * files, snapshots and seeded workload data already carry digests
 * built on it, so it stays; the mixing is otherwise standard FNV-1a.
 */
constexpr uint64_t kDigestBasis = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

/** FNV-1a over @p bytes, continuing from @p h. */
inline uint64_t
fnv1a(std::span<const unsigned char> bytes, uint64_t h = kDigestBasis)
{
    for (unsigned char b : bytes) {
        h ^= b;
        h *= kFnvPrime;
    }
    return h;
}

/** FNV-1a over the characters of @p s, continuing from @p h. */
inline uint64_t
fnv1a(std::string_view s, uint64_t h = kDigestBasis)
{
    const auto *data = reinterpret_cast<const unsigned char *>(s.data());
    return fnv1a({ data, s.size() }, h);
}

/** Word-at-a-time FNV-1a: each mix() folds a whole 64-bit word in
 * with one xor and one multiply. */
class Fnv64
{
  public:
    void
    mix(uint64_t word)
    {
        h ^= word;
        h *= kFnvPrime;
    }

    uint64_t value() const { return h; }

  private:
    uint64_t h = kDigestBasis;
};

/** One splitmix64 step: advance @p state by the golden-ratio gamma
 * and return the finalized output. */
constexpr uint64_t
splitmix64(uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ull;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Full-avalanche mix of @p x: the splitmix64 output for state x. */
constexpr uint64_t
mix64(uint64_t x)
{
    return splitmix64(x);
}

} // namespace overgen::hash

#endif // OVERGEN_COMMON_HASH_H
