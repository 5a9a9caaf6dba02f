#include "obs/log.h"

#include <cstdio>
#include <mutex>

#include "common/env.h"
#include "obs/prof.h"

namespace clfd {
namespace obs {

namespace {

std::mutex& SinkMutex() {
  static std::mutex mutex;
  return mutex;
}

// kOff + 1 sentinel = "not yet initialized from the environment".
constexpr int kUninitialized = static_cast<int>(LogLevel::kOff) + 1;
std::atomic<int> g_level{kUninitialized};

char LevelChar(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return 'D';
    case LogLevel::kInfo: return 'I';
    case LogLevel::kWarn: return 'W';
    case LogLevel::kError: return 'E';
    default: return '?';
  }
}

const char* Basename(const char* path) {
  const char* base = path;
  for (const char* p = path; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  return base;
}

}  // namespace

LogLevel ParseLogLevel(std::string_view text, LogLevel fallback) {
  std::string lower(text);
  for (char& c : lower) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  if (lower == "debug") return LogLevel::kDebug;
  if (lower == "info") return LogLevel::kInfo;
  if (lower == "warn" || lower == "warning") return LogLevel::kWarn;
  if (lower == "error") return LogLevel::kError;
  if (lower == "off" || lower == "none") return LogLevel::kOff;
  return fallback;
}

LogLevel GlobalLogLevel() {
  int level = g_level.load(std::memory_order_relaxed);
  if (level == kUninitialized) {
    LogLevel parsed = ParseLogLevel(GetEnvString("CLFD_LOG_LEVEL", ""),
                                    LogLevel::kWarn);
    level = static_cast<int>(parsed);
    g_level.store(level, std::memory_order_relaxed);
  }
  return static_cast<LogLevel>(level);
}

void SetLogLevel(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

double UptimeSeconds() { return static_cast<double>(prof::NowNs()) / 1e9; }

LogMessage::LogMessage(LogLevel level, const char* file, int line) {
  char header[96];
  std::snprintf(header, sizeof(header), "%c %.3fs %s:%d] ", LevelChar(level),
                UptimeSeconds(), Basename(file), line);
  stream_ << header;
}

LogMessage::~LogMessage() {
  stream_ << '\n';
  const std::string line = stream_.str();
  std::lock_guard<std::mutex> lock(SinkMutex());
  std::fwrite(line.data(), 1, line.size(), stderr);
}

}  // namespace obs
}  // namespace clfd
