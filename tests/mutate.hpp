// Seeded mutations of encoded messages and files, for the decoder tests:
// IDGSHRD1 jobs (test_shard), IDGJOB1 results (test_server) and IDGCKPT1
// files (test_supervisor). Every mutated input must decode or fail with a
// named idg::Error. Anything else — a crash, an out-of-bounds read (CI runs
// these suites under ASan+UBSan) or an exception such as std::bad_alloc
// from an allocation sized by a corrupt field — fails the test.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/array.hpp"
#include "common/error.hpp"

namespace idg::test {

/// Deterministic byte-level mutator over a splitmix64 stream: the same seed
/// gives the same mutations on every host.
class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : state_(seed) {}

  /// `bytes` with one to three edits: a flipped bit, a random byte, an
  /// extreme 32- or 64-bit value, a truncation or appended bytes. Half of
  /// the edits land on an 8-byte window that holds a small nonzero integer
  /// in the input, which is where the counts and extents of an encoding
  /// live.
  std::string mutate(std::string bytes) {
    std::vector<std::size_t> fields;
    for (std::size_t i = 0; i + 8 <= bytes.size(); ++i) {
      std::uint64_t value = 0;
      std::memcpy(&value, bytes.data() + i, sizeof(value));
      if (value != 0 && value < (std::uint64_t{1} << 24)) fields.push_back(i);
    }
    const std::uint64_t edits = 1 + below(3);
    for (std::uint64_t e = 0; e < edits && !bytes.empty(); ++e) {
      const std::size_t at =
          (!fields.empty() && below(2) == 0 ? fields[below(fields.size())]
                                            : below(bytes.size())) %
          bytes.size();
      switch (below(6)) {
        case 0: bytes[at] ^= static_cast<char>(1u << below(8)); break;
        case 1: bytes[at] = static_cast<char>(next()); break;
        case 2: put(bytes, at, extreme64(), 8); break;
        case 3: put(bytes, at, extreme32(), 4); break;
        case 4: bytes.resize(at); break;
        default:
          for (std::uint64_t n = 1 + below(16); n > 0; --n)
            bytes.push_back(static_cast<char>(next()));
      }
    }
    return bytes;
  }

 private:
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

  std::uint64_t extreme64() {
    const std::uint64_t values[] = {0,
                                    1,
                                    0xff,
                                    std::uint64_t{1} << 31,
                                    std::uint64_t{1} << 32,
                                    std::uint64_t{1} << 40,
                                    std::uint64_t{1} << 62,
                                    std::uint64_t{1} << 63,
                                    ~std::uint64_t{0},
                                    next()};
    return values[below(std::size(values))];
  }
  std::uint64_t extreme32() {
    const std::uint64_t values[] = {0, 1, 0x7fffffff, 0x80000000, 0xffffffff,
                                    next() & 0xffffffff};
    return values[below(std::size(values))];
  }

  /// Writes the low `width` bytes of `value` at `at`, clipped to the end.
  static void put(std::string& bytes, std::size_t at, std::uint64_t value,
                  std::size_t width) {
    std::memcpy(bytes.data() + at, &value,
                std::min(width, bytes.size() - at));
  }

  std::uint64_t state_;
};

/// True when `array` holds exactly as many elements as its extents say,
/// their product taken without wrapping: decoded storage must never
/// disagree with the extents its reader will index by.
template <typename T, std::size_t Rank>
bool consistent(const Array<T, Rank>& array) {
  const auto& dims = array.dims();
  if (std::find(dims.begin(), dims.end(), 0u) != dims.end())
    return array.size() == 0;
  std::size_t count = 1;
  for (const std::size_t d : dims) {
    if (count > std::numeric_limits<std::size_t>::max() / d) return false;
    count *= d;
  }
  return array.size() == count;
}

/// Runs `decode`: true when it returned, false when it threw idg::Error.
/// Any other exception propagates and fails the calling test.
template <typename Fn>
bool decodes(Fn&& decode) {
  try {
    decode();
    return true;
  } catch (const Error&) {
    return false;
  }
}

}  // namespace idg::test
