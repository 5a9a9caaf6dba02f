#include "common/env.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace clfd {

int GetEnvInt(const std::string& name, int fallback) {
  const char* raw = std::getenv(name.c_str());
  if (raw == nullptr) return fallback;
  char* end = nullptr;
  long value = std::strtol(raw, &end, 10);
  if (end == raw) return fallback;
  return static_cast<int>(value);
}

double GetEnvDouble(const std::string& name, double fallback) {
  const char* raw = std::getenv(name.c_str());
  if (raw == nullptr) return fallback;
  char* end = nullptr;
  double value = std::strtod(raw, &end);
  if (end == raw) return fallback;
  return value;
}

std::string GetEnvString(const std::string& name, const std::string& fallback) {
  const char* raw = std::getenv(name.c_str());
  return raw == nullptr ? fallback : std::string(raw);
}

bool GetEnvBool(const std::string& name, bool fallback) {
  const char* raw = std::getenv(name.c_str());
  if (raw == nullptr) return fallback;
  std::string value(raw);
  std::transform(value.begin(), value.end(), value.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (value == "1" || value == "true" || value == "yes" || value == "on") {
    return true;
  }
  if (value == "0" || value == "false" || value == "no" || value == "off") {
    return false;
  }
  return fallback;
}

bool ParsedWhole(const std::string& text, const char* end) {
  return !text.empty() && end == text.c_str() + text.size() &&
         errno != ERANGE;
}

void BadValue(const std::string& what, const std::string& text,
              const std::string& want) {
  throw std::invalid_argument("bad " + what + " value '" + text +
                              "': want " + want);
}

double ParseFraction(const std::string& what, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (!ParsedWhole(text, end) || !(value > 0.0 && value <= 1.0)) {
    BadValue(what, text, "a number in (0, 1]");
  }
  return value;
}

int ParsePositiveInt(const std::string& what, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (!ParsedWhole(text, end) || value < 1 ||
      value > std::numeric_limits<int>::max()) {
    BadValue(what, text, "an integer >= 1");
  }
  return static_cast<int>(value);
}

double GetEnvFraction(const std::string& name, double fallback) {
  const char* raw = std::getenv(name.c_str());
  return raw == nullptr ? fallback : ParseFraction(name, raw);
}

int GetEnvPositiveInt(const std::string& name, int fallback) {
  const char* raw = std::getenv(name.c_str());
  return raw == nullptr ? fallback : ParsePositiveInt(name, raw);
}

}  // namespace clfd
