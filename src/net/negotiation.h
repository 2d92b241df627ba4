#ifndef SLACKER_NET_NEGOTIATION_H_
#define SLACKER_NET_NEGOTIATION_H_

#include <cstdint>

#include "src/codec/codec.h"
#include "src/common/bytes.h"
#include "src/common/status.h"

namespace slacker::net {

/// Capability negotiation for mixed-software-version migration pairs
/// (DESIGN.md §12). Each server advertises its SoftwareVersion plus a
/// feature bitmask in the control handshake (kMigrateRequest and the
/// kMigrateAccept/kSnapshotResume reply); the source then downgrades
/// its codec choice to the common feature set. Version 0 means
/// "legacy, negotiation disabled": such servers never emit the
/// extension and peers never downgrade on their behalf, keeping every
/// pre-versioning wire byte and golden digest intact.

/// Feature bits advertised in the negotiation mask.
inline constexpr uint64_t kFeatureLz = 1ull << 0;
/// Per-chunk adaptive codec selection (v3 and later).
inline constexpr uint64_t kFeatureAdaptive = 1ull << 1;

/// Extension magic; the codec frame extension uses 0xC5.
inline constexpr uint8_t kNegotiationMagic = 0xC6;

/// The feature set a given software version ships with. Deterministic
/// by construction: a fleet on version v always advertises the same
/// mask, so mixed-version pairs always converge to the same codec.
///   v0    — legacy, no negotiation (mask unused)
///   v1    — raw streaming only
///   v2    — + LZ compression
///   v3+   — + adaptive per-chunk selection
uint64_t FeatureMaskForVersion(uint32_t version);

/// Resolves the codec mode a (source, target) pair actually runs.
/// If either side is version 0 the handshake is legacy and the
/// requested mode stands unchanged. Otherwise the pair downgrades to
/// the intersection of the advertised masks — never fails:
///   kLz       -> kLz if both sides speak LZ, else kRaw
///   kAdaptive -> kAdaptive if both sides speak LZ and adaptive,
///                kLz if both speak LZ only, else kRaw
codec::CodecMode NegotiatedCodecMode(codec::CodecMode requested,
                                     uint32_t source_version,
                                     uint64_t source_mask,
                                     uint32_t target_version,
                                     uint64_t target_mask);

/// The version/capability pair carried by the control handshake.
/// Encoded as a self-checksummed message extension so legacy decoders
/// (which expect the payload to end, or a 0xC5 codec frame) reject
/// rather than misparse it.
///
/// Wire layout:
///   magic   u8      0xC6
///   version varint  software version
///   mask    varint  feature bitmask
///   crc     fixed32 CRC-32C over all preceding extension bytes
struct NegotiationInfo {
  uint32_t software_version = 0;
  uint64_t feature_mask = 0;

  bool operator==(const NegotiationInfo& other) const = default;

  void EncodeTo(ByteWriter* writer) const;
  /// Bytes EncodeTo writes, counted without encoding.
  size_t EncodedSize() const;
  /// Consumes the extension including its magic byte. Corruption on a
  /// bad magic, truncated field, or CRC mismatch.
  Status DecodeFrom(ByteReader* reader);
};

}  // namespace slacker::net

#endif  // SLACKER_NET_NEGOTIATION_H_
