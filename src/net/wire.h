#ifndef SLACKER_NET_WIRE_H_
#define SLACKER_NET_WIRE_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"

namespace slacker::net {

/// Frame layout: [magic u32][payload length u32][crc32c u32][payload].
/// The CRC covers the payload; CheckFrame rejects bad magic, short
/// input, and checksum mismatches.
constexpr uint32_t kFrameMagic = 0x534c4b52;  // "SLKR"
constexpr size_t kFrameHeaderBytes = 12;

/// Wraps a payload in a checksummed frame.
std::vector<uint8_t> EncodeFrame(const std::vector<uint8_t>& payload);  // NOLINT(slacker-test-only): reference — EncodeMessage/SealFrame

/// Turns `frame`, kFrameHeaderBytes of room followed by the payload,
/// into a frame in place: fills the header from the payload's length
/// and CRC. Lets an encoder write a payload straight into its frame.
void SealFrame(std::vector<uint8_t>* frame);

/// Checks one frame in `data` (which must contain exactly one frame)
/// where it lies: magic, length and payload CRC. On success points
/// `payload` at the frame's own `length` payload bytes, so a decoder
/// parses them without a copy.
Status CheckFrame(const std::vector<uint8_t>& data, const uint8_t** payload,
                  size_t* length);

}  // namespace slacker::net

#endif  // SLACKER_NET_WIRE_H_
