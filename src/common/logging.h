#ifndef SLACKER_COMMON_LOGGING_H_
#define SLACKER_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace slacker {

/// Only warnings and errors are logged; both always print.
enum class LogLevel { kWarn, kError };

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

#define SLACKER_LOG_WARN \
  ::slacker::internal::LogMessage(::slacker::LogLevel::kWarn).stream()
#define SLACKER_LOG_ERROR \
  ::slacker::internal::LogMessage(::slacker::LogLevel::kError).stream()

}  // namespace slacker

#endif  // SLACKER_COMMON_LOGGING_H_
