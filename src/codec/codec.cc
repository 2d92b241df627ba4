#include "src/codec/codec.h"

namespace slacker::codec {

const char* CodecName(Codec codec) {
  switch (codec) {
    case Codec::kRaw:
      return "raw";
    case Codec::kLz:
      return "lz";
  }
  return "unknown";
}

const char* CodecModeName(CodecMode mode) {
  switch (mode) {
    case CodecMode::kRaw:
      return "raw";
    case CodecMode::kLz:
      return "lz";
    case CodecMode::kAdaptive:
      return "adaptive";
  }
  return "unknown";
}

Status ParseCodecMode(const std::string& text, CodecMode* out) {
  if (text == "raw") {
    *out = CodecMode::kRaw;
  } else if (text == "lz") {
    *out = CodecMode::kLz;
  } else if (text == "adaptive") {
    *out = CodecMode::kAdaptive;
  } else {
    return Status::InvalidArgument("unknown codec mode: " + text +
                                   " (expected raw|lz|adaptive)");
  }
  return Status::Ok();
}

Status CodecConfig::Validate() const {
  if (payload_redundancy < 0.0 || payload_redundancy >= 1.0) {
    return Status::InvalidArgument(
        "codec.payload_redundancy must be in [0, 1)");
  }
  return Status::Ok();
}

}  // namespace slacker::codec
