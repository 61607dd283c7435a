// IDGSHRD1 — the coordinator <-> worker wire protocol of the sharded
// major cycle (DESIGN.md §16).
//
// Every message is one length-prefixed, CRC-guarded frame on a worker's
// socketpair channel:
//
//   u32 type | u64 payload_size | payload | u32 crc32(type|size|payload)
//
// Payloads reuse the CheckpointWriter/CheckpointReader byte codec
// (common/checkpoint.hpp): POD fields and raw arrays with named truncation
// errors, exactly the discipline the IDGCKPT1 files already follow. A job
// travels in two frames: a context frame with what a backend's calls
// share (parameters, plan, uvw, A-terms, flags, kernel set) and one call
// frame per grid or degrid call (the skip mask and the visibilities or the
// grid). A worker keeps its context between calls, so the coordinator sends
// it only to workers that do not hold the current one. The protocol is
// deadlock-free by construction: the coordinator only writes context, call
// and assignment frames to a worker that holds no shard, so the worker sits
// in its read loop, and large result frames only flow while the
// coordinator polls for them.
//
// Failure taxonomy: every channel-level problem — EOF mid-frame, CRC
// mismatch, a receive timeout from the heartbeat deadline, a broken pipe —
// throws WireError (or WireTimeout). The coordinator treats a WireError on
// a worker channel as the death of that worker and runs its respawn +
// rebalance path; nothing at this layer retries.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/array.hpp"
#include "common/checkpoint.hpp"
#include "common/error.hpp"
#include "common/types.hpp"
#include "idg/plan.hpp"

namespace idg::shard {

inline constexpr const char* kProtocolMagic = "IDGSHRD1";
inline constexpr std::uint32_t kProtocolVersion = 2;

/// Channel-level failure: the peer is gone or the stream is corrupt. The
/// coordinator maps it to "this worker died".
class WireError : public Error {
 public:
  using Error::Error;
};

/// The heartbeat receive deadline expired while waiting for frame bytes
/// (SO_RCVTIMEO on the coordinator's channel end): a wedged or
/// silently-slow worker.
class WireTimeout : public WireError {
 public:
  using WireError::WireError;
};

/// A worker exits when the coordinator closes its channel between frames;
/// no message asks it to.
enum class MsgType : std::uint32_t {
  kHello = 1,        ///< W->C: magic, version, pid — first frame after exec
  kCallGrid = 2,     ///< C->W: one gridding call: skip mask, visibilities
  kCallDegrid = 3,   ///< C->W: one degridding call: skip mask, grid
  kCallReady = 4,    ///< W->C: call decoded + scrubbed; scrub report attached
  kShardAssign = 5,  ///< C->W: compute work groups [begin, end) of a shard
  kGroupResult = 6,  ///< W->C: one group's subgrids / predicted rects / skip
  kShardDone = 7,    ///< W->C: every group of the shard was reported
  kShardError = 8,   ///< W->C: shard abandoned (failure or cancellation)
  kContext = 9,      ///< C->W: what the calls share, kept between calls
};

const char* to_string(MsgType type);

struct Frame {
  MsgType type = MsgType::kHello;
  std::string payload;
};

// ---------------------------------------------------------------------------
// Generic framing layer. The frame format is fd- and protocol-agnostic:
// any length-prefixed, CRC-guarded message stream (IDGSHRD1 worker
// channels, the IDGJOB1 server socket) reuses these two functions with its
// own catalogued fault site. The typed IDGSHRD1 write_frame/read_frame
// below are thin wrappers.

/// One raw frame: the type field uninterpreted (each protocol defines its
/// own message-type enum over it).
struct RawFrame {
  std::uint32_t type = 0;
  std::string payload;
};

/// Writes one frame, handling partial writes and retrying EINTR (signal
/// traffic — drain SIGTERM/SIGINT, timers — must never surface as a
/// spurious WireError). Uses send(MSG_NOSIGNAL) on sockets so a dead peer
/// surfaces as a WireError (EPIPE) instead of a process-wide SIGPIPE;
/// falls back to write() for non-socket fds. `fault_site` is the
/// catalogued injection site checked before any byte is written (index =
/// frame type); injected idg::Errors are remapped to WireError.
void write_frame_raw(int fd, std::uint32_t type, std::string_view payload,
                     const char* fault_site);

/// Reads one frame. Returns nullopt on a clean EOF at a frame boundary;
/// throws WireError on a mid-frame EOF, a CRC/length violation, or any
/// read error, and WireTimeout when the fd's receive timeout expires.
/// EINTR is always retried. `fault_site` is checked after a frame decodes
/// cleanly (index = frame type), remapped to WireError like the write
/// side.
std::optional<RawFrame> read_frame_raw(int fd, const char* fault_site);

/// Writes one frame, handling partial writes and EINTR. Uses
/// send(MSG_NOSIGNAL) on sockets so a dead peer surfaces as a WireError
/// (EPIPE) instead of a process-wide SIGPIPE; falls back to write() for
/// non-socket fds. Catalogued fault site: "shard.protocol.write" (index =
/// message type), rethrown as WireError so injected protocol faults take
/// the worker-failure recovery path.
void write_frame(int fd, MsgType type, std::string_view payload);

/// A frame checksummed once and written to any number of channels: a
/// context or call payload sent to every worker pays for one CRC.
struct SealedFrame {
  MsgType type = MsgType::kHello;
  std::string payload;
  std::uint32_t crc = 0;
};

SealedFrame seal_frame(MsgType type, std::string payload);

/// write_frame with the CRC computed by seal_frame; same bytes, same fault
/// site.
void write_frame(int fd, const SealedFrame& frame);

/// Reads one frame. Returns nullopt on a clean EOF at a frame boundary
/// (the peer closed the channel between messages); throws WireError on a
/// mid-frame EOF, a CRC/length violation, or any read error, and
/// WireTimeout when the fd's receive timeout expires. Catalogued fault
/// site: "shard.protocol.read" (index = message type).
std::optional<Frame> read_frame(int fd);

// ---------------------------------------------------------------------------
// Message payload codecs. Encode returns the payload string to frame;
// decode validates and throws named idg::Error / WireError on mismatch.

struct HelloMsg {
  std::uint32_t version = kProtocolVersion;
  std::int32_t pid = 0;
};

struct ShardAssignMsg {
  std::uint64_t shard = 0;
  std::uint64_t group_begin = 0;
  std::uint64_t group_end = 0;
};

struct CallReadyMsg {
  std::uint64_t scrubbed = 0;         ///< samples neutralized by the scrub
  std::uint64_t skipped_samples = 0;  ///< samples in scrub-dropped groups
  std::uint8_t has_scrub = 0;         ///< a scrub pass actually ran
};

enum class ResultKind : std::uint32_t {
  kSubgrids = 0,      ///< post-FFT subgrids of one gridding group
  kVisibilities = 1,  ///< packed predicted rects of one degridding group
  kSkipped = 2,       ///< group dropped by the worker's scrub pass
};

/// The fields ahead of a group result's element bytes.
struct GroupResultHead {
  std::uint64_t group = 0;
  ResultKind kind = ResultKind::kSkipped;
  std::uint64_t count = 0;  ///< items (kSubgrids) or visibilities
};

/// A decoded group result. It keeps the frame's payload, and data() views
/// the element bytes inside it (empty for kSkipped): a 262 KB subgrid
/// result is not copied out of the frame it arrived in.
struct GroupResultMsg : GroupResultHead {
  std::string payload;
  std::size_t data_offset = 0;

  std::string_view data() const {
    return std::string_view(payload).substr(data_offset);
  }
};

struct ShardErrorMsg {
  std::uint64_t shard = 0;
  std::int64_t group = -1;     ///< failing group, -1 when not attributable
  std::uint8_t cancelled = 0;  ///< CancelledError: final, never rebalanced
  std::string message;
};

std::string encode_hello(const HelloMsg& msg);
HelloMsg decode_hello(const std::string& payload);
std::string encode_shard_assign(const ShardAssignMsg& msg);
ShardAssignMsg decode_shard_assign(const std::string& payload);
std::string encode_call_ready(const CallReadyMsg& msg);
CallReadyMsg decode_call_ready(const std::string& payload);
std::string encode_group_result(const GroupResultHead& head,
                                std::string_view data);
GroupResultMsg decode_group_result(std::string payload);
std::string encode_shard_done(std::uint64_t shard);
std::uint64_t decode_shard_done(const std::string& payload);
std::string encode_shard_error(const ShardErrorMsg& msg);
ShardErrorMsg decode_shard_error(const std::string& payload);

/// Writes the kGroupResult frame of encode_group_result(head, data) straight
/// from the caller's buffer, without assembling its payload first.
void write_group_result(int fd, const GroupResultHead& head,
                        std::string_view data);

// ---------------------------------------------------------------------------
// The context: what a fresh worker needs before its first call and keeps
// for every later one — Parameters, the plan's parts (items shipped in
// their final order so Plan::from_parts rebuilds it bit-identically), uvw,
// the A-terms, the flags, the kernel-set registry name and the in-worker
// retry count.

struct ContextMsg {
  Plan plan;
  Array2D<UVW> uvw;
  Array4D<Jones> aterms;
  Array3D<std::uint8_t> flags;  ///< zero-size when nothing is flagged
  std::string kernel_set;
  std::uint32_t worker_retries = 0;

  FlagView flag_view() const {
    return flags.size() == 0 ? FlagView{} : flags.cview();
  }
};

std::string encode_context(const Plan& plan, ArrayView<const UVW, 2> uvw,
                           ArrayView<const Jones, 4> aterms, FlagView flags,
                           const std::string& kernel_set,
                           std::uint32_t worker_retries);
ContextMsg decode_context(std::string payload);

// ---------------------------------------------------------------------------
// Calls: what changes from one grid or degrid call to the next — the
// caller's skip mask and the input array.

struct GridCallMsg {
  std::vector<std::uint8_t> skip_groups;
  Array3D<Visibility> visibilities;
};

struct DegridCallMsg {
  std::vector<std::uint8_t> skip_groups;
  Array3D<cfloat> grid;
};

std::string encode_grid_call(std::span<const std::uint8_t> skip_groups,
                             ArrayView<const Visibility, 3> visibilities);
GridCallMsg decode_grid_call(std::string payload);

std::string encode_degrid_call(std::span<const std::uint8_t> skip_groups,
                               ArrayView<const cfloat, 3> grid);
DegridCallMsg decode_degrid_call(std::string payload);

}  // namespace idg::shard
