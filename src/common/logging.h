#ifndef SLACKER_COMMON_LOGGING_H_
#define SLACKER_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace slacker {

enum class LogLevel { kDebug = 0, kInfo, kWarn, kError, kOff };

/// Process-wide minimum level; messages below it are discarded.
/// Defaults to kWarn so tests and benches stay quiet.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

namespace internal {

/// Stream-style sink that emits one line to stderr on destruction.
class LogMessage {
 public:
  explicit LogMessage(LogLevel level);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostringstream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

}  // namespace internal

#define SLACKER_LOG(level)                                    \
  if (::slacker::GetLogLevel() <= ::slacker::LogLevel::level) \
  ::slacker::internal::LogMessage(::slacker::LogLevel::level).stream()

#define SLACKER_LOG_DEBUG SLACKER_LOG(kDebug)
#define SLACKER_LOG_INFO SLACKER_LOG(kInfo)
#define SLACKER_LOG_WARN SLACKER_LOG(kWarn)
#define SLACKER_LOG_ERROR SLACKER_LOG(kError)

}  // namespace slacker

#endif  // SLACKER_COMMON_LOGGING_H_
