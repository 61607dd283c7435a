#include "common/checkpoint.hpp"

#include <dirent.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace idg {

namespace {

constexpr std::size_t kMagicSize = 8;

/// Removes stale `<basename>.tmp*` siblings of `path`: leftovers of writers
/// killed between opening the temp file and renaming it. Temp names embed
/// the writer pid, so the current writer passes its own temp name to spare
/// it. Sweep failures are ignored — an unreadable directory must not fail
/// the commit that just succeeded.
void sweep_stale_temps(const std::string& path, const std::string& keep) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash);
  const std::string base =
      (slash == std::string::npos ? path : path.substr(slash + 1)) + ".tmp";
  const std::string keep_name =
      keep.find_last_of('/') == std::string::npos
          ? keep
          : keep.substr(keep.find_last_of('/') + 1);
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return;
  while (const dirent* entry = readdir(d)) {
    const std::string name = entry->d_name;
    if (name.rfind(base, 0) != 0 || name == keep_name) continue;
    std::remove((dir + "/" + name).c_str());
  }
  closedir(d);
}

/// Slicing-by-8 tables: t[0] is the byte-at-a-time table, and t[k][b] is
/// the CRC of byte b followed by k zero bytes, so eight table lookups
/// advance the CRC by eight bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

const CrcTables& crc_tables() {
  static const CrcTables tables = [] {
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
      }
    }
    return t;
  }();
  return tables;
}

/// Four bytes as a little-endian word, composed byte by byte so the read
/// assumes neither the host's byte order nor any alignment (compilers turn
/// it into one load on little-endian hosts).
std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  const CrcTables& t = crc_tables();
  std::uint32_t c = seed ^ 0xffffffffu;
  for (; size >= 8; bytes += 8, size -= 8) {
    const std::uint32_t lo = c ^ load_le32(bytes);
    const std::uint32_t hi = load_le32(bytes + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
        t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
        t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    c = t[0][(c ^ *bytes) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

void CheckpointWriter::append(const void* data, std::size_t size) {
  payload_.append(static_cast<const char*>(data), size);
}

void CheckpointWriter::commit(const std::string& path,
                              const char* magic) const {
  IDG_CHECK(std::strlen(magic) == kMagicSize,
            "checkpoint magic must be exactly 8 bytes");
  // Predictable per-writer temp name; the sweep removes what previous
  // (killed) writers left behind, including legacy un-suffixed `.tmp`
  // files. Checkpoint files are single-writer per path by contract.
  const std::string tmp = path + ".tmp." + std::to_string(getpid());
  sweep_stale_temps(path, tmp);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    IDG_CHECK(out.good(),
              "cannot open checkpoint temp file for writing: " << tmp);
    out.write(magic, kMagicSize);
    out.write(payload_.data(),
              static_cast<std::streamsize>(payload_.size()));
    const std::uint32_t crc = crc32(payload_.data(), payload_.size());
    out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
    out.flush();
    if (!out.good()) {
      out.close();
      std::remove(tmp.c_str());
      throw Error("failed writing checkpoint temp file: " + tmp);
    }
  }
  // The atomic replace: a reader sees the old complete file or the new
  // complete file, never a torn one.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error("failed renaming checkpoint '" + tmp + "' to '" + path +
                "'");
  }
}

CheckpointReader CheckpointReader::from_payload(std::string payload,
                                                std::string label) {
  CheckpointReader reader;
  reader.path_ = std::move(label);
  reader.payload_ = std::move(payload);
  return reader;
}

CheckpointReader::CheckpointReader(const std::string& path,
                                   const char* magic)
    : path_(path) {
  IDG_CHECK(std::strlen(magic) == kMagicSize,
            "checkpoint magic must be exactly 8 bytes");
  std::ifstream in(path, std::ios::binary);
  IDG_CHECK(in.good(), "cannot open checkpoint file: " << path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  IDG_CHECK(contents.size() >= kMagicSize + sizeof(std::uint32_t),
            "checkpoint file truncated (shorter than magic + CRC): "
                << path);
  IDG_CHECK(std::memcmp(contents.data(), magic, kMagicSize) == 0,
            "not a '" << magic << "' checkpoint file: " << path);

  const std::size_t payload_size =
      contents.size() - kMagicSize - sizeof(std::uint32_t);
  std::uint32_t stored = 0;
  std::memcpy(&stored, contents.data() + kMagicSize + payload_size,
              sizeof(stored));
  const std::uint32_t computed =
      crc32(contents.data() + kMagicSize, payload_size);
  IDG_CHECK(stored == computed,
            "checkpoint CRC mismatch (corrupt or partially written): "
                << path);
  payload_ = contents.substr(kMagicSize, payload_size);
}

void CheckpointReader::extract(void* out, std::size_t size,
                               const char* what) {
  IDG_CHECK(size <= payload_.size() - offset_,
            "checkpoint file truncated reading " << what << ": " << path_);
  // An empty array decodes into a null destination; memcpy must not see it.
  if (size != 0) std::memcpy(out, payload_.data() + offset_, size);
  offset_ += size;
}

std::size_t CheckpointReader::checked_count(std::span<const std::uint64_t> dims,
                                           std::size_t element_size,
                                           const char* what) const {
  const std::uint64_t capacity = remaining() / element_size;
  std::uint64_t count = 1;
  bool fits = true;
  for (const std::uint64_t d : dims) {
    if (d == 0) return 0;  // an empty array fits, whatever its other extents
    fits = fits && count <= capacity / d;
    if (fits) count *= d;
  }
  if (!fits) {
    std::ostringstream extents;
    for (std::size_t i = 0; i < dims.size(); ++i)
      extents << (i == 0 ? "" : "x") << dims[i];
    throw Error("checkpoint file truncated reading " + std::string(what) +
                " (" + extents.str() + " elements of " +
                std::to_string(element_size) + " bytes): " + path_);
  }
  return count;
}

void CheckpointReader::finish() const {
  IDG_CHECK(offset_ == payload_.size(),
            "checkpoint file has " << (payload_.size() - offset_)
                                   << " trailing bytes: " << path_);
}

}  // namespace idg
