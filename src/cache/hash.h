#pragma once

/// \file hash.h
/// Content-addressed cache keys: a 128-bit key built from two
/// independent FNV-1a-64 streams over a canonical byte serialization of
/// the inputs. The canonicalization rules make the key platform-stable:
///
///   * doubles are hashed through their IEEE-754 bit pattern, after
///     normalizing `-0.0` to `+0.0` (the two compare equal and produce
///     identical physics) and collapsing every NaN payload onto the one
///     canonical quiet-NaN pattern;
///   * integers are widened to 64 bits and hashed little-endian,
///     regardless of the host's native width or endianness;
///   * every logical field is preceded by a `tag()` naming it, so two
///     structs that happen to share a numeric prefix cannot collide by
///     field reordering, and inserting a field changes every key built
///     after it (schema evolution = new keys, never misreads).
///
/// Two independent 64-bit streams (different offset bases and a
/// different post-mix) give an effective 128-bit key; a collision needs
/// both halves to agree, which at the cache sizes this library sees
/// (thousands of records) is out of reach.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace subscale::cache {

/// A 128-bit content hash; value type, usable as an unordered_map key
/// via HashKeyHasher below.
struct HashKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const HashKey& a, const HashKey& b) {
    return a.hi == b.hi && a.lo == b.lo;
  }
  friend bool operator!=(const HashKey& a, const HashKey& b) {
    return !(a == b);
  }

  /// 32 lowercase hex chars (hi then lo); used as the on-disk filename.
  std::string hex() const;
};

struct HashKeyHasher {
  std::size_t operator()(const HashKey& k) const noexcept {
    // The key is already uniformly mixed; fold the halves.
    return static_cast<std::size_t>(k.hi ^ (k.lo * 0x9e3779b97f4a7c15ull));
  }
};

/// Incremental canonical hasher. Feed fields in a fixed order, each
/// preceded by a tag; call key() at the end.
class KeyHasher {
 public:
  KeyHasher();

  /// Start from an existing key (domain/namespace chaining).
  explicit KeyHasher(const HashKey& seed);

  /// Field / record label. Hashes the label text including its length.
  KeyHasher& tag(std::string_view label);

  /// Canonical double: -0.0 == +0.0, all NaNs equal.
  KeyHasher& f64(double v);
  KeyHasher& u64(std::uint64_t v);
  KeyHasher& i64(std::int64_t v);
  KeyHasher& boolean(bool v);
  KeyHasher& str(std::string_view s);
  KeyHasher& bytes(const void* data, std::size_t size);

  HashKey key() const;

 private:
  std::uint64_t a_ = 0;
  std::uint64_t b_ = 0;
};

/// The canonical bit pattern f64() hashes for `v` (exposed for the
/// property tests: -0.0 -> bits of +0.0, NaN -> one quiet-NaN pattern).
std::uint64_t canonical_f64_bits(double v);

/// The standard FNV-1a-64 offset basis (the state of an empty stream).
inline constexpr std::uint64_t kFnv1a64Offset = 0xcbf29ce484222325ull;

/// FNV-1a-64 over `size` bytes, continuing from stream state `h`. The
/// one implementation: KeyHasher's two streams, the solve cache's
/// payload checksum and the perf-history line checksum all run on it.
std::uint64_t fnv1a64(const void* data, std::size_t size,
                      std::uint64_t h = kFnv1a64Offset);

}  // namespace subscale::cache
