#include "shard/protocol.hpp"

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstring>
#include <optional>
#include <type_traits>

#include "common/error.hpp"
#include "common/faultinject.hpp"

namespace idg::shard {

namespace {

/// Ceiling on a frame's declared payload size. Real frames top out at one
/// visibility cube (hundreds of MB on production grids); anything above
/// this is a corrupt length field, and rejecting it keeps a bit-flipped
/// header from driving a multi-gigabyte allocation.
constexpr std::uint64_t kMaxFramePayload = std::uint64_t{1} << 34;

/// Writes every byte of `parts` in as few syscalls as the socket takes,
/// advancing through the vector on partial writes.
void write_all(int fd, std::span<iovec> parts) {
  std::size_t first = 0;
  while (first < parts.size()) {
    msghdr msg{};
    msg.msg_iov = parts.data() + first;
    msg.msg_iovlen = parts.size() - first;
    // MSG_NOSIGNAL: a worker that died between frames must surface as
    // EPIPE (-> WireError -> respawn), not as a process-wide SIGPIPE.
    ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) {
      n = ::writev(fd, msg.msg_iov, static_cast<int>(msg.msg_iovlen));
    }
    if (n < 0) {
      if (errno == EINTR) continue;  // interrupted by a signal: retry
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw WireTimeout(
            "wire protocol send timed out mid-frame (peer stopped draining "
            "its channel)");
      }
      throw WireError("wire protocol write failed: " +
                      std::string(std::strerror(errno)));
    }
    auto left = static_cast<std::size_t>(n);
    while (first < parts.size() && left >= parts[first].iov_len) {
      left -= parts[first].iov_len;
      ++first;
    }
    if (first < parts.size()) {
      parts[first].iov_base = static_cast<char*>(parts[first].iov_base) + left;
      parts[first].iov_len -= left;
    }
  }
}

/// Reads exactly `size` bytes. Returns false on EOF before the first byte
/// when `eof_ok` (a clean close at a frame boundary); throws on mid-read
/// EOF, errors, and receive timeouts.
bool read_exact(int fd, void* out, std::size_t size, bool eof_ok = false) {
  char* p = static_cast<char*>(out);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, p + got, size - got);
    if (n == 0) {
      if (eof_ok && got == 0) return false;
      throw WireError("wire protocol stream truncated mid-frame (got " +
                      std::to_string(got) + " of " + std::to_string(size) +
                      " bytes)");
    }
    if (n < 0) {
      if (errno == EINTR) continue;  // interrupted by a signal: retry
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw WireTimeout(
            "wire protocol receive timed out mid-frame "
            "(receive deadline exceeded)");
      }
      throw WireError("wire protocol read failed: " +
                      std::string(std::strerror(errno)));
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

std::uint32_t frame_crc(std::uint32_t type,
                        std::span<const std::string_view> payload) {
  std::uint64_t size = 0;
  for (const std::string_view part : payload) size += part.size();
  std::uint32_t crc = crc32(&type, sizeof(type));
  crc = crc32(&size, sizeof(size), crc);
  for (const std::string_view part : payload) {
    crc = crc32(part.data(), part.size(), crc);
  }
  return crc;
}

/// Sends one frame whose payload is the concatenation of `payload` (at
/// most two parts: a group result's fields and its element bytes).
void send_frame(int fd, std::uint32_t type,
                std::span<const std::string_view> payload, std::uint32_t crc) {
  std::uint64_t size = 0;
  for (const std::string_view part : payload) size += part.size();
  char header[sizeof(type) + sizeof(size)];
  std::memcpy(header, &type, sizeof(type));
  std::memcpy(header + sizeof(type), &size, sizeof(size));
  IDG_CHECK(payload.size() <= 2, "a frame payload has at most two parts");
  iovec parts[4];
  std::size_t n = 0;
  parts[n++] = iovec{header, sizeof(header)};
  for (const std::string_view part : payload) {
    parts[n++] = iovec{const_cast<char*>(part.data()), part.size()};
  }
  parts[n++] = iovec{&crc, sizeof(crc)};
  write_all(fd, std::span(parts, n));
}

/// The protocol fault sites inject idg::Error; remap to WireError so an
/// injected protocol fault exercises exactly the peer-death recovery path
/// a real torn stream would.
void protocol_fault_point(const char* site, std::uint32_t type) {
  try {
    IDG_FAULT_POINT(site, static_cast<std::int64_t>(type));
  } catch (const WireError&) {
    throw;
  } catch (const Error& e) {
    throw WireError(e.what());
  }
#ifndef IDG_FAULT_INJECTION
  (void)site;
  (void)type;
#endif
}

void put_string(CheckpointWriter& w, const std::string& s) {
  w.write_pod(static_cast<std::uint64_t>(s.size()));
  w.write_array(s.data(), s.size());
}

std::string get_string(CheckpointReader& r, const char* what) {
  std::uint64_t size = 0;
  r.read_pod(size, what);
  std::string s(r.checked_count({&size, 1}, 1, what), '\0');
  r.read_array(s.data(), s.size(), what);
  return s;
}

template <typename T, std::size_t Rank>
void put_array(CheckpointWriter& w, ArrayView<const T, Rank> view) {
  for (std::size_t d = 0; d < Rank; ++d) {
    w.write_pod(static_cast<std::uint64_t>(view.data() == nullptr
                                               ? 0
                                               : view.dim(d)));
  }
  if (view.data() != nullptr) w.write_array(view.data(), view.size());
}

template <typename T, std::size_t Rank>
Array<T, Rank> get_array(CheckpointReader& r, const char* what) {
  std::array<std::uint64_t, Rank> extents{};
  for (std::uint64_t& extent : extents) r.read_pod(extent, what);
  r.checked_count(extents, sizeof(T), what);
  std::array<std::size_t, Rank> dims{};
  std::copy(extents.begin(), extents.end(), dims.begin());
  Array<T, Rank> array(dims);
  r.read_array(array.data(), array.size(), what);
  return array;
}

/// Reads Parameters, which travel as their object bytes. The one bool among
/// them, the engaged flag of `epsilon`, may hold only 0 or 1: reading any
/// other byte as a bool is undefined, so the flag is checked before
/// anything reads it. (libstdc++ and libc++ both store an optional's flag
/// right after its value.)
Parameters get_parameters(CheckpointReader& r) {
  static_assert(std::is_standard_layout_v<Parameters> &&
                sizeof(std::optional<double>) == 2 * sizeof(double));
  constexpr std::size_t kEpsilonFlag =
      offsetof(Parameters, epsilon) + sizeof(double);
  unsigned char bytes[sizeof(Parameters)];
  r.read_array(bytes, sizeof(bytes), "context parameters");
  IDG_CHECK(bytes[kEpsilonFlag] <= 1,
            "shard context parameters carry a corrupt epsilon flag ("
                << static_cast<int>(bytes[kEpsilonFlag]) << ")");
  Parameters params;
  std::memcpy(&params, bytes, sizeof(params));
  return params;
}

std::vector<std::uint8_t> get_skip_mask(CheckpointReader& r) {
  std::uint64_t nr_skip = 0;
  r.read_pod(nr_skip, "call skip mask size");
  std::vector<std::uint8_t> skip_groups(
      r.checked_count({&nr_skip, 1}, 1, "call skip mask"));
  r.read_array(skip_groups.data(), skip_groups.size(), "call skip mask");
  return skip_groups;
}

void put_skip_mask(CheckpointWriter& w,
                   std::span<const std::uint8_t> skip_groups) {
  w.write_pod(static_cast<std::uint64_t>(skip_groups.size()));
  w.write_array(skip_groups.data(), skip_groups.size());
}

}  // namespace

const char* to_string(MsgType type) {
  switch (type) {
    case MsgType::kHello: return "hello";
    case MsgType::kCallGrid: return "call-grid";
    case MsgType::kCallDegrid: return "call-degrid";
    case MsgType::kCallReady: return "call-ready";
    case MsgType::kShardAssign: return "shard-assign";
    case MsgType::kGroupResult: return "group-result";
    case MsgType::kShardDone: return "shard-done";
    case MsgType::kShardError: return "shard-error";
    case MsgType::kContext: return "context";
  }
  return "unknown";
}

void write_frame_raw(int fd, std::uint32_t type, std::string_view payload,
                     const char* fault_site) {
  protocol_fault_point(fault_site, type);
  const std::string_view parts[] = {payload};
  send_frame(fd, type, parts, frame_crc(type, parts));
}

std::optional<RawFrame> read_frame_raw(int fd, const char* fault_site) {
  RawFrame frame;
  if (!read_exact(fd, &frame.type, sizeof(frame.type), /*eof_ok=*/true)) {
    return std::nullopt;
  }
  std::uint64_t size = 0;
  read_exact(fd, &size, sizeof(size));
  if (size > kMaxFramePayload) {
    throw WireError("wire protocol frame declares an implausible payload (" +
                    std::to_string(size) + " bytes): corrupt stream");
  }
  frame.payload.resize(size);
  read_exact(fd, frame.payload.data(), frame.payload.size());
  std::uint32_t crc = 0;
  read_exact(fd, &crc, sizeof(crc));
  const std::string_view parts[] = {frame.payload};
  if (crc != frame_crc(frame.type, parts)) {
    throw WireError("wire protocol CRC mismatch on a type-" +
                    std::to_string(frame.type) + " frame: corrupt stream");
  }
  protocol_fault_point(fault_site, frame.type);
  return frame;
}

constexpr const char* kWriteSite = "shard.protocol.write";

void write_frame(int fd, MsgType type, std::string_view payload) {
  write_frame_raw(fd, static_cast<std::uint32_t>(type), payload, kWriteSite);
}

SealedFrame seal_frame(MsgType type, std::string payload) {
  const std::string_view parts[] = {payload};
  const std::uint32_t crc = frame_crc(static_cast<std::uint32_t>(type), parts);
  return SealedFrame{type, std::move(payload), crc};
}

void write_frame(int fd, const SealedFrame& frame) {
  const auto type = static_cast<std::uint32_t>(frame.type);
  protocol_fault_point(kWriteSite, type);
  const std::string_view parts[] = {frame.payload};
  send_frame(fd, type, parts, frame.crc);
}

std::optional<Frame> read_frame(int fd) {
  std::optional<RawFrame> raw = read_frame_raw(fd, "shard.protocol.read");
  if (!raw) return std::nullopt;
  return Frame{static_cast<MsgType>(raw->type), std::move(raw->payload)};
}

std::string encode_hello(const HelloMsg& msg) {
  CheckpointWriter w;
  w.write_array(kProtocolMagic, 8);
  w.write_pod(msg.version);
  w.write_pod(msg.pid);
  return w.take_payload();
}

HelloMsg decode_hello(const std::string& payload) {
  auto r = CheckpointReader::from_payload(payload, "hello");
  char magic[8];
  r.read_array(magic, 8, "hello magic");
  IDG_CHECK(std::memcmp(magic, kProtocolMagic, 8) == 0,
            "shard hello carries the wrong protocol magic");
  HelloMsg msg;
  r.read_pod(msg.version, "hello version");
  r.read_pod(msg.pid, "hello pid");
  r.finish();
  IDG_CHECK(msg.version == kProtocolVersion,
            "shard protocol version mismatch (worker speaks v"
                << msg.version << ", coordinator v" << kProtocolVersion
                << ") — mixed binaries?");
  return msg;
}

std::string encode_shard_assign(const ShardAssignMsg& msg) {
  CheckpointWriter w;
  w.write_pod(msg.shard);
  w.write_pod(msg.group_begin);
  w.write_pod(msg.group_end);
  return w.take_payload();
}

ShardAssignMsg decode_shard_assign(const std::string& payload) {
  auto r = CheckpointReader::from_payload(payload, "shard-assign");
  ShardAssignMsg msg;
  r.read_pod(msg.shard, "assign shard id");
  r.read_pod(msg.group_begin, "assign group begin");
  r.read_pod(msg.group_end, "assign group end");
  r.finish();
  IDG_CHECK(msg.group_begin <= msg.group_end,
            "shard assignment has an inverted group range");
  return msg;
}

std::string encode_call_ready(const CallReadyMsg& msg) {
  CheckpointWriter w;
  w.write_pod(msg.scrubbed);
  w.write_pod(msg.skipped_samples);
  w.write_pod(msg.has_scrub);
  return w.take_payload();
}

CallReadyMsg decode_call_ready(const std::string& payload) {
  auto r = CheckpointReader::from_payload(payload, "call-ready");
  CallReadyMsg msg;
  r.read_pod(msg.scrubbed, "ready scrubbed count");
  r.read_pod(msg.skipped_samples, "ready skipped count");
  r.read_pod(msg.has_scrub, "ready scrub flag");
  r.finish();
  return msg;
}

std::string encode_group_result(const GroupResultHead& head,
                                std::string_view data) {
  CheckpointWriter w;
  w.write_pod(head.group);
  w.write_pod(static_cast<std::uint32_t>(head.kind));
  w.write_pod(head.count);
  w.write_array(data.data(), data.size());
  return w.take_payload();
}

void write_group_result(int fd, const GroupResultHead& head,
                        std::string_view data) {
  constexpr auto type = static_cast<std::uint32_t>(MsgType::kGroupResult);
  protocol_fault_point(kWriteSite, type);
  const std::string fields = encode_group_result(head, {});
  const std::string_view parts[] = {fields, data};
  send_frame(fd, type, parts, frame_crc(type, parts));
}

GroupResultMsg decode_group_result(std::string payload) {
  // Only the head goes through the codec (which owns what it reads); the
  // element bytes stay in the payload they arrived in.
  constexpr std::size_t kHeadBytes =
      2 * sizeof(std::uint64_t) + sizeof(std::uint32_t);
  auto r = CheckpointReader::from_payload(payload.substr(0, kHeadBytes),
                                          "group-result");
  GroupResultMsg msg;
  r.read_pod(msg.group, "result group");
  std::uint32_t kind = 0;
  r.read_pod(kind, "result kind");
  IDG_CHECK(kind <= static_cast<std::uint32_t>(ResultKind::kSkipped),
            "shard group result carries an unknown kind " << kind);
  msg.kind = static_cast<ResultKind>(kind);
  r.read_pod(msg.count, "result count");
  r.finish();
  msg.data_offset = kHeadBytes;
  msg.payload = std::move(payload);
  return msg;
}

std::string encode_shard_done(std::uint64_t shard) {
  CheckpointWriter w;
  w.write_pod(shard);
  return w.take_payload();
}

std::uint64_t decode_shard_done(const std::string& payload) {
  auto r = CheckpointReader::from_payload(payload, "shard-done");
  std::uint64_t shard = 0;
  r.read_pod(shard, "done shard id");
  r.finish();
  return shard;
}

std::string encode_shard_error(const ShardErrorMsg& msg) {
  CheckpointWriter w;
  w.write_pod(msg.shard);
  w.write_pod(msg.group);
  w.write_pod(msg.cancelled);
  put_string(w, msg.message);
  return w.take_payload();
}

ShardErrorMsg decode_shard_error(const std::string& payload) {
  auto r = CheckpointReader::from_payload(payload, "shard-error");
  ShardErrorMsg msg;
  r.read_pod(msg.shard, "error shard id");
  r.read_pod(msg.group, "error group");
  r.read_pod(msg.cancelled, "error cancelled flag");
  msg.message = get_string(r, "error message");
  r.finish();
  return msg;
}

std::string encode_context(const Plan& plan, ArrayView<const UVW, 2> uvw,
                           ArrayView<const Jones, 4> aterms, FlagView flags,
                           const std::string& kernel_set,
                           std::uint32_t worker_retries) {
  CheckpointWriter w;
  w.write_pod(plan.parameters());
  w.write_pod(static_cast<std::uint64_t>(plan.items().size()));
  w.write_array(plan.items().data(), plan.items().size());
  w.write_pod(static_cast<std::uint64_t>(plan.wavenumbers().size()));
  w.write_array(plan.wavenumbers().data(), plan.wavenumbers().size());
  w.write_pod(static_cast<std::uint64_t>(plan.nr_planned_visibilities()));
  w.write_pod(static_cast<std::uint64_t>(plan.nr_dropped_visibilities()));
  put_array(w, uvw);
  put_array(w, aterms);
  put_array(w, flags);
  put_string(w, kernel_set);
  w.write_pod(worker_retries);
  return w.take_payload();
}

ContextMsg decode_context(std::string payload) {
  auto r = CheckpointReader::from_payload(std::move(payload), "context");
  const Parameters params = get_parameters(r);
  std::uint64_t nr_items = 0;
  r.read_pod(nr_items, "context item count");
  std::vector<WorkItem> items(
      r.checked_count({&nr_items, 1}, sizeof(WorkItem), "context items"));
  r.read_array(items.data(), items.size(), "context items");
  std::uint64_t nr_wavenumbers = 0;
  r.read_pod(nr_wavenumbers, "context wavenumber count");
  std::vector<float> wavenumbers(r.checked_count(
      {&nr_wavenumbers, 1}, sizeof(float), "context wavenumbers"));
  r.read_array(wavenumbers.data(), wavenumbers.size(), "context wavenumbers");
  std::uint64_t planned = 0;
  std::uint64_t dropped = 0;
  r.read_pod(planned, "context planned visibilities");
  r.read_pod(dropped, "context dropped visibilities");
  Plan plan = Plan::from_parts(params, std::move(items),
                               std::move(wavenumbers), planned, dropped);
  auto uvw = get_array<UVW, 2>(r, "context uvw");
  auto aterms = get_array<Jones, 4>(r, "context aterms");
  auto flags = get_array<std::uint8_t, 3>(r, "context flags");
  std::string kernel_set = get_string(r, "context kernel set");
  std::uint32_t worker_retries = 0;
  r.read_pod(worker_retries, "context worker retries");
  r.finish();
  return ContextMsg{std::move(plan),   std::move(uvw),
                    std::move(aterms), std::move(flags),
                    std::move(kernel_set), worker_retries};
}

std::string encode_grid_call(std::span<const std::uint8_t> skip_groups,
                             ArrayView<const Visibility, 3> visibilities) {
  CheckpointWriter w;
  put_skip_mask(w, skip_groups);
  put_array(w, visibilities);
  return w.take_payload();
}

GridCallMsg decode_grid_call(std::string payload) {
  auto r = CheckpointReader::from_payload(std::move(payload), "call-grid");
  GridCallMsg msg{get_skip_mask(r), {}};
  msg.visibilities = get_array<Visibility, 3>(r, "call visibilities");
  r.finish();
  return msg;
}

std::string encode_degrid_call(std::span<const std::uint8_t> skip_groups,
                               ArrayView<const cfloat, 3> grid) {
  CheckpointWriter w;
  put_skip_mask(w, skip_groups);
  put_array(w, grid);
  return w.take_payload();
}

DegridCallMsg decode_degrid_call(std::string payload) {
  auto r = CheckpointReader::from_payload(std::move(payload), "call-degrid");
  DegridCallMsg msg{get_skip_mask(r), {}};
  msg.grid = get_array<cfloat, 3>(r, "call grid");
  r.finish();
  return msg;
}

}  // namespace idg::shard
