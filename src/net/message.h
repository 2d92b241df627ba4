#ifndef SLACKER_NET_MESSAGE_H_
#define SLACKER_NET_MESSAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/codec/frame.h"
#include "src/common/status.h"
#include "src/net/negotiation.h"
#include "src/wal/log_record.h"

namespace slacker::net {

/// Extension magic for the range-scope trailer (codec frames use 0xC5,
/// negotiation 0xC6).
inline constexpr uint8_t kRangeScopeMagic = 0xC7;

/// Message types exchanged between Slacker migration controllers. The
/// paper uses "a simple format based on Google's protocol buffers"
/// (§2.2); this hand-rolled tagged encoding plays that role.
enum class MessageType : uint8_t {
  kMigrateRequest = 1,   // Controller → controller: start migrating.
  kMigrateAccept = 2,    // Target agrees and allocated the tenant slot.
  kSnapshotBegin = 3,    // Snapshot stream starts (carries start LSN).
  kSnapshotChunk = 4,    // One chunk of the fuzzy snapshot.
  kSnapshotEnd = 5,      // Snapshot complete (carries end LSN).
  kSnapshotAck = 6,      // Target finished ingesting the snapshot.
  kDeltaBatch = 7,       // A round of binlog records.
  kDeltaAck = 8,         // Target applied the round (carries LSN).
  kHandoverRequest = 9,  // Source frozen; final delta + digest attached.
  kHandoverAck = 10,     // Target applied the final delta (its digest).
  kHandoverCommit = 11,  // Digests matched; target becomes authoritative.
  kMigrateAbort = 12,
  kSnapshotResume = 13,  // Target has durably staged chunks; resume offer.
  kSnapshotNack = 14,    // Target saw a gap/corrupt chunk; retransmit.
};

/// Tenant parameters shipped in kMigrateRequest so the target can
/// instantiate an identical instance (the my.cnf that travels with the
/// data directory).
struct TenantWireConfig {
  uint64_t page_bytes = 0;
  uint64_t record_bytes = 0;
  uint64_t record_count = 0;
  uint64_t buffer_pool_bytes = 0;
  double cpu_per_op = 0.0;
  double commit_latency = 0.0;

  bool operator==(const TenantWireConfig& other) const = default;
};

struct Message {
  MessageType type = MessageType::kMigrateRequest;
  uint64_t tenant_id = 0;
  /// kMigrateRequest: destination server id.
  uint64_t target_server = 0;
  /// LSN bookmark (kSnapshotBegin/End, kDeltaAck, kHandoverRequest).
  uint64_t lsn = 0;
  /// kSnapshotChunk: chunk ordinal.
  uint64_t chunk_seq = 0;
  /// kSnapshotChunk / kDeltaBatch: logical payload size this message
  /// represents on the wire (the compact digest encoding stands in for
  /// the real row bytes).
  uint64_t payload_bytes = 0;
  /// kHandoverRequest/kHandoverAck: state digest for convergence check.
  uint64_t digest = 0;
  /// kSnapshotChunk: CRC-32C over the chunk's packed rows, so the
  /// target can tell a corrupt-but-decodable chunk from a good one and
  /// NACK it for retransmission.
  uint32_t chunk_crc = 0;
  /// kMigrateRequest: the source is willing to resume from durably
  /// staged chunks of an earlier, interrupted attempt. kSnapshotBegin:
  /// the source accepted the resume; false means a fresh stream.
  bool resume = false;
  /// kSnapshotResume: first key the source still needs to stream
  /// (everything below it is staged at the target). kSnapshotBegin
  /// echoes it when the source accepts the resume.
  uint64_t resume_key = 0;
  /// kMigrateAbort: error text.
  std::string error;
  /// kMigrateRequest only.
  TenantWireConfig config;
  /// kSnapshotChunk: row images.
  std::vector<storage::Record> rows;
  /// kDeltaBatch / kHandoverRequest: log records.
  std::vector<wal::LogRecord> log_records;
  /// kSnapshotChunk / kDeltaBatch: codec frame header. A default
  /// (kRaw) frame encodes to nothing, keeping the raw-path wire bytes
  /// identical to the pre-codec format.
  codec::FrameHeader frame;
  /// Control handshake (kMigrateRequest, kMigrateAccept,
  /// kSnapshotResume): the sender's software version and feature mask.
  /// A default (version 0) negotiation encodes to nothing, keeping the
  /// legacy wire bytes identical.
  NegotiationInfo negotiation;
  /// kMigrateRequest: the migration moves the keys in
  /// [range_lo, range_hi) (DESIGN.md §16). The default, the whole key
  /// space, is a whole-tenant migration and encodes to nothing (wire
  /// bytes stay identical); only a partial range appends an extension.
  uint64_t range_lo = 0;
  uint64_t range_hi = UINT64_MAX;

  bool operator==(const Message& other) const = default;

  /// A partial-range migration: [range_lo, range_hi) is not everything.
  bool partial_range() const {
    return range_lo != 0 || range_hi != UINT64_MAX;
  }

  /// Bytes this message occupies on the wire at the payload level: the
  /// encoded size for compressed frames, the logical size otherwise.
  /// Throttles and drop ledgers meter this; progress tracking stays on
  /// payload_bytes (logical).
  uint64_t wire_payload_bytes() const {
    return frame.codec == codec::Codec::kRaw ? payload_bytes
                                             : frame.encoded_bytes;
  }
};

/// Serializes a message into a checksummed frame.
std::vector<uint8_t> EncodeMessage(const Message& message);
/// Parses a frame produced by EncodeMessage.
Status DecodeMessage(const std::vector<uint8_t>& frame, Message* out);

}  // namespace slacker::net

#endif  // SLACKER_NET_MESSAGE_H_
