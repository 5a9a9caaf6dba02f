#pragma once

#include <string>

namespace clfd {

// Reads an integer environment variable, returning `fallback` when the
// variable is unset or unparsable. Used for infrastructure knobs such as
// CLFD_THREADS, whose bad values clamp instead of failing.
int GetEnvInt(const std::string& name, int fallback);

// Same for doubles.
double GetEnvDouble(const std::string& name, double fallback);

// Reads a string environment variable, returning `fallback` when unset.
// An empty value counts as set (returns "").
std::string GetEnvString(const std::string& name, const std::string& fallback);

// Reads a boolean environment variable. Accepts 1/0, true/false, yes/no,
// on/off (case-insensitive); anything else falls back.
bool GetEnvBool(const std::string& name, bool fallback);

// Whole-text numeric parsing, shared by clfd_cli's flags and the bench
// scale knobs so each range rule exists once. `what` names the value in
// the error: a parser throws std::invalid_argument("bad <what> value
// '<text>': want <range>") unless all of `text` is a number in its range.

// True when a strto* call, made with errno cleared, consumed all of the
// non-empty `text` without overflow.
bool ParsedWhole(const std::string& text, const char* end);

// Throws the error above.
[[noreturn]] void BadValue(const std::string& what, const std::string& text,
                           const std::string& want);

// A number in (0, 1].
double ParseFraction(const std::string& what, const std::string& text);

// An integer in [1, INT_MAX].
int ParsePositiveInt(const std::string& what, const std::string& text);

// The two parsers applied to environment variable `name`; `fallback` when
// it is unset. A set but empty variable is malformed.
double GetEnvFraction(const std::string& name, double fallback);
int GetEnvPositiveInt(const std::string& name, int fallback);

}  // namespace clfd
