#include "src/storage/record.h"

namespace slacker::storage {

std::vector<uint8_t> MaterializePayload(const Record& record,
                                        size_t logical_size) {
  std::vector<uint8_t> out(logical_size);
  uint64_t state = record.digest ^ record.key;
  for (size_t i = 0; i < logical_size; ++i) {
    // xorshift64 keeps expansion cheap and deterministic.
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    out[i] = static_cast<uint8_t>(state);
  }
  return out;
}

}  // namespace slacker::storage
