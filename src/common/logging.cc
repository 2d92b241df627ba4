#include "src/common/logging.h"

#include <cstdio>

namespace slacker::internal {

LogMessage::LogMessage(LogLevel level) {
  stream_ << (level == LogLevel::kWarn ? "[WARN] " : "[ERROR] ");
}

LogMessage::~LogMessage() {
  stream_ << "\n";
  std::fputs(stream_.str().c_str(), stderr);
}

}  // namespace slacker::internal
