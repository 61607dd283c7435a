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
// errors, exactly the discipline the IDGCKPT1 files already follow. The
// protocol is deadlock-free by construction: the coordinator only writes
// job/assignment frames while the worker sits in its read loop, and large
// result frames only flow while the coordinator polls for them.
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
inline constexpr std::uint32_t kProtocolVersion = 1;

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

enum class MsgType : std::uint32_t {
  kHello = 1,        ///< W->C: magic, version, pid — first frame after exec
  kJobGrid = 2,      ///< C->W: full gridding job setup
  kJobDegrid = 3,    ///< C->W: full degridding job setup
  kJobReady = 4,     ///< W->C: job decoded + scrubbed; scrub report attached
  kShardAssign = 5,  ///< C->W: compute work groups [begin, end) of a shard
  kGroupResult = 6,  ///< W->C: one group's subgrids / predicted rects / skip
  kShardDone = 7,    ///< W->C: every group of the shard was reported
  kShardError = 8,   ///< W->C: shard abandoned (failure or cancellation)
  kShutdown = 9,     ///< C->W: drain and exit 0
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

struct JobReadyMsg {
  std::uint64_t scrubbed = 0;         ///< samples neutralized by the scrub
  std::uint64_t skipped_samples = 0;  ///< samples in scrub-dropped groups
  std::uint8_t has_scrub = 0;         ///< a scrub pass actually ran
};

enum class ResultKind : std::uint32_t {
  kSubgrids = 0,      ///< post-FFT subgrids of one gridding group
  kVisibilities = 1,  ///< packed predicted rects of one degridding group
  kSkipped = 2,       ///< group dropped by the worker's scrub pass
};

struct GroupResultMsg {
  std::uint64_t group = 0;
  ResultKind kind = ResultKind::kSkipped;
  std::uint64_t count = 0;  ///< items (kSubgrids) or visibilities
  std::string data;         ///< raw element bytes, empty for kSkipped
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
std::string encode_job_ready(const JobReadyMsg& msg);
JobReadyMsg decode_job_ready(const std::string& payload);
std::string encode_group_result(const GroupResultMsg& msg);
GroupResultMsg decode_group_result(std::string payload);
std::string encode_shard_done(std::uint64_t shard);
std::uint64_t decode_shard_done(const std::string& payload);
std::string encode_shard_error(const ShardErrorMsg& msg);
ShardErrorMsg decode_shard_error(const std::string& payload);

// ---------------------------------------------------------------------------
// Job setup: everything a fresh worker process needs to reconstruct the
// coordinator's run — Parameters, the plan's parts (items shipped in their
// final order so Plan::from_parts rebuilds it bit-identically), the input
// arrays, the caller's skip mask, the kernel-set registry name and the
// in-worker supervision knob.

/// The shared (direction-independent) slice of a decoded job.
struct JobCommon {
  Plan plan;
  Array2D<UVW> uvw;
  Array4D<Jones> aterms;
  Array3D<std::uint8_t> flags;  ///< zero-size when nothing is flagged
  std::vector<std::uint8_t> skip_groups;
  std::string kernel_set;
  std::uint32_t worker_retries = 0;

  FlagView flag_view() const {
    return flags.size() == 0 ? FlagView{} : flags.cview();
  }
};

struct GridJobMsg {
  JobCommon common;
  Array3D<Visibility> visibilities;
};

struct DegridJobMsg {
  JobCommon common;
  Array3D<cfloat> grid;
};

std::string encode_grid_job(const Plan& plan, ArrayView<const UVW, 2> uvw,
                            ArrayView<const Visibility, 3> visibilities,
                            FlagView flags, ArrayView<const Jones, 4> aterms,
                            std::span<const std::uint8_t> skip_groups,
                            const std::string& kernel_set,
                            std::uint32_t worker_retries);
GridJobMsg decode_grid_job(std::string payload);

std::string encode_degrid_job(const Plan& plan, ArrayView<const UVW, 2> uvw,
                              ArrayView<const cfloat, 3> grid, FlagView flags,
                              ArrayView<const Jones, 4> aterms,
                              std::span<const std::uint8_t> skip_groups,
                              const std::string& kernel_set,
                              std::uint32_t worker_retries);
DegridJobMsg decode_degrid_job(std::string payload);

}  // namespace idg::shard
