#include "src/common/logging.h"

#include <atomic>
#include <cstdio>

namespace slacker {
namespace {

std::atomic<LogLevel> g_level{LogLevel::kWarn};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

}  // namespace

void SetLogLevel(LogLevel level) { g_level.store(level); }
LogLevel GetLogLevel() { return g_level.load(); }

namespace internal {

LogMessage::LogMessage(LogLevel level) {
  stream_ << "[" << LevelName(level) << "] ";
}

LogMessage::~LogMessage() {
  stream_ << "\n";
  std::fputs(stream_.str().c_str(), stderr);
}

}  // namespace internal
}  // namespace slacker
