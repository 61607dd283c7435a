// CRC-guarded, atomically-replaced checkpoint files (DESIGN.md §12).
//
// Long multi-cycle imaging jobs snapshot their state after each major cycle
// so a killed run can resume instead of restarting (clean/major_cycle.hpp).
// The file contract: a fixed 8-byte magic, POD header fields, raw arrays,
// and named errors for every way a file can be wrong — truncation, trailing
// bytes, corruption, array extents that no file could hold. Two properties
// are added on top:
//
//   * atomic replace — the writer stages the whole payload in memory and
//     writes it to `<path>.tmp`, then renames over `<path>`. A reader (or
//     a resumed run) therefore only ever sees the previous complete
//     checkpoint or the new complete checkpoint, never a half-written one,
//     even if the writer is SIGKILLed mid-write.
//   * CRC32 guard — a trailing CRC over everything after the magic. A
//     torn-at-the-storage-layer or bit-flipped file is rejected with a
//     named error instead of resuming from garbage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <utility>

namespace idg {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of `size` bytes. `seed`
/// chains incremental updates: crc32(b, crc32(a)) == crc32(a+b). Computed
/// eight bytes per step (slicing-by-8); any alignment, any byte order.
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

/// Accumulates a checkpoint payload in memory, then commits it to disk as
///   magic[8] | payload | crc32(payload)
/// via write-to-temp + rename (see file comment). Throws idg::Error on any
/// IO failure; a failed commit never leaves a partial `<path>` behind.
class CheckpointWriter {
 public:
  template <typename T>
  void write_pod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    append(&value, sizeof(T));
  }

  template <typename T>
  void write_array(const T* data, std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    append(data, count * sizeof(T));
  }

  /// Writes magic + payload + CRC to `path` atomically. `magic` must be
  /// exactly 8 bytes.
  ///
  /// The temp file is `<path>.tmp.<pid>` — predictable, so a commit also
  /// sweeps stale `<path>.tmp*` leftovers of writers that were killed
  /// mid-write (an orphan temp can otherwise accumulate forever next to a
  /// checkpoint that is rewritten every cycle).
  void commit(const std::string& path, const char* magic) const;

  std::size_t payload_size() const { return payload_.size(); }

  /// Moves the accumulated payload, without magic or CRC, out of the writer
  /// and leaves the writer empty. The wire protocols (src/shard/protocol.hpp,
  /// src/server/protocol.hpp) reuse the writer as their message serializer
  /// and frame the payload themselves; a job runs to megabytes, so it is
  /// handed over, not copied.
  std::string take_payload() { return std::exchange(payload_, {}); }

 private:
  void append(const void* data, std::size_t size);
  std::string payload_;
};

/// Loads and validates a checkpoint written by CheckpointWriter: checks the
/// magic, verifies the trailing CRC over the payload, then hands the
/// payload out through typed reads with named truncation errors. finish()
/// asserts the payload was consumed exactly (trailing bytes rejected).
class CheckpointReader {
 public:
  /// Reads the whole file; throws idg::Error naming the problem when the
  /// file is missing, too short, carries the wrong magic, or fails the CRC
  /// check ("corrupt or partially written").
  CheckpointReader(const std::string& path, const char* magic);

  /// Wraps an already-validated in-memory payload (no magic, no CRC) in the
  /// same typed-read interface. `label` names the source in truncation
  /// errors (the shard protocol passes the message type).
  static CheckpointReader from_payload(std::string payload,
                                       std::string label);

  template <typename T>
  void read_pod(T& value, const char* what) {
    static_assert(std::is_trivially_copyable_v<T>);
    extract(&value, sizeof(T), what);
  }

  template <typename T>
  void read_array(T* data, std::size_t count, const char* what) {
    static_assert(std::is_trivially_copyable_v<T>);
    extract(data, count * sizeof(T), what);
  }

  /// Number of elements of an array with extents `dims` and elements of
  /// `element_size` bytes, to be read from the payload next. Call it before
  /// allocating the array: it throws a named truncation error when the
  /// product of the extents overflows or when the elements need more bytes
  /// than the payload has left, so a corrupt header can never size an
  /// allocation.
  std::size_t checked_count(std::span<const std::uint64_t> dims,
                            std::size_t element_size, const char* what) const;

  /// Throws when payload bytes remain unread (a header/payload mismatch —
  /// the file holds more data than its header accounts for).
  void finish() const;

  std::size_t remaining() const { return payload_.size() - offset_; }
  const std::string& path() const { return path_; }

 private:
  CheckpointReader() = default;
  void extract(void* out, std::size_t size, const char* what);
  std::string path_;
  std::string payload_;
  std::size_t offset_ = 0;
};

}  // namespace idg
