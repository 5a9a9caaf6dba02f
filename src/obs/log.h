#pragma once

// Leveled structured logger, the "L" of the observability layer.
//
//   CLFD_LOG(INFO) << "epoch done" << obs::Kv("epoch", e)
//                  << obs::Kv("loss", loss);
//
// emits one line to stderr:
//
//   I 12.034s label_corrector.cc:41] epoch done epoch=3 loss=0.412
//
// The level check happens before any of the streamed expressions are
// evaluated, so a disabled statement costs one relaxed atomic load. The
// global level comes from CLFD_LOG_LEVEL (debug|info|warn|error|off,
// default warn) and can be overridden programmatically with SetLogLevel.
// Lines are assembled in a private buffer and written with a single
// locked fwrite, so concurrent threads never interleave characters.

#include <atomic>
#include <sstream>
#include <string>
#include <string_view>

namespace clfd {
namespace obs {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kOff = 4,
};

// Parses "debug"/"info"/"warn"/"error"/"off" (case-insensitive); returns
// `fallback` for anything else.
LogLevel ParseLogLevel(std::string_view text, LogLevel fallback);

// Current global level. Initialized lazily from CLFD_LOG_LEVEL.
LogLevel GlobalLogLevel();
void SetLogLevel(LogLevel level);

inline bool LogEnabled(LogLevel level) { return level >= GlobalLogLevel(); }

// A key=value field for structured payloads: CLFD_LOG(INFO) << Kv("k", v).
template <typename T>
struct KvField {
  std::string_view key;
  const T& value;
};
template <typename T>
KvField<T> Kv(std::string_view key, const T& value) {
  return KvField<T>{key, value};
}

// One in-flight log statement; flushes a single line on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }
  template <typename T>
  LogMessage& operator<<(const KvField<T>& field) {
    stream_ << ' ' << field.key << '=' << field.value;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

// Seconds of process uptime on the obs clock (prof::NowNs); shared with the
// tracer so log timestamps line up with trace-event timestamps.
double UptimeSeconds();

// Severity tokens for the CLFD_LOG(severity) macro, glog-style.
namespace log_severity {
inline constexpr LogLevel DEBUG = LogLevel::kDebug;
inline constexpr LogLevel INFO = LogLevel::kInfo;
inline constexpr LogLevel WARN = LogLevel::kWarn;
inline constexpr LogLevel ERROR = LogLevel::kError;
}  // namespace log_severity

}  // namespace obs
}  // namespace clfd

#define CLFD_LOG(severity)                                              \
  if (!::clfd::obs::LogEnabled(::clfd::obs::log_severity::severity))    \
    ;                                                                   \
  else                                                                  \
    ::clfd::obs::LogMessage(::clfd::obs::log_severity::severity,        \
                            __FILE__, __LINE__)

