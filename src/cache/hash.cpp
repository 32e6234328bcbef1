#include "cache/hash.h"

#include <cmath>
#include <cstring>

namespace subscale::cache {

namespace {

// Stream A uses the standard FNV-1a-64 offset basis; stream B a
// distinct one (the standard basis XOR a splitmix64 constant) so the two
// halves decorrelate from the first byte.
constexpr std::uint64_t kOffsetA = kFnv1a64Offset;
constexpr std::uint64_t kOffsetB = kFnv1a64Offset ^ 0x9e3779b97f4a7c15ull;

// Final avalanche (splitmix64 finalizer) so short inputs still spread
// across the whole word; stream B gets an extra rotation so the halves
// never coincide even on identical byte streams.
inline std::uint64_t finish(std::uint64_t h) {
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

}  // namespace

std::uint64_t fnv1a64(const void* data, std::size_t size, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t canonical_f64_bits(double v) {
  if (v == 0.0) v = 0.0;  // collapses -0.0 onto +0.0
  if (std::isnan(v)) {
    return 0x7ff8000000000000ull;  // one canonical quiet NaN
  }
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

std::string HashKey::hex() const {
  static const char* kDigits = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    out[15 - i] = kDigits[(hi >> (4 * i)) & 0xf];
    out[31 - i] = kDigits[(lo >> (4 * i)) & 0xf];
  }
  return out;
}

KeyHasher::KeyHasher() : a_(kOffsetA), b_(kOffsetB) {}

KeyHasher::KeyHasher(const HashKey& seed)
    : a_(kOffsetA ^ seed.hi), b_(kOffsetB ^ seed.lo) {}

KeyHasher& KeyHasher::bytes(const void* data, std::size_t size) {
  a_ = fnv1a64(data, size, a_);
  b_ = fnv1a64(data, size, b_);
  return *this;
}

KeyHasher& KeyHasher::tag(std::string_view label) { return str(label); }

KeyHasher& KeyHasher::str(std::string_view s) {
  u64(s.size());
  return bytes(s.data(), s.size());
}

KeyHasher& KeyHasher::u64(std::uint64_t v) {
  unsigned char le[8];
  for (int i = 0; i < 8; ++i) le[i] = static_cast<unsigned char>(v >> (8 * i));
  return bytes(le, sizeof(le));
}

KeyHasher& KeyHasher::i64(std::int64_t v) {
  return u64(static_cast<std::uint64_t>(v));
}

KeyHasher& KeyHasher::boolean(bool v) { return u64(v ? 1 : 0); }

KeyHasher& KeyHasher::f64(double v) { return u64(canonical_f64_bits(v)); }

HashKey KeyHasher::key() const {
  return {finish(a_), finish(b_ + 0x2545f4914f6cdd1dull)};
}

}  // namespace subscale::cache
