#pragma once

// Minimal zero-dependency JSON reader for tooling: parses the
// google-benchmark --benchmark_out format and the profiler's ToJson output
// into a plain value tree. The write side is obs/json_writer.h, shared by
// the obs exporters; this is the read side for tools that must diff those
// artifacts (tools/perf_diff).
//
//   json::Value v;
//   std::string err;
//   if (!json::Parse(text, &v, &err)) { ... }
//   const json::Value* benches = v.Find("benchmarks");
//   for (const json::Value& b : benches->array) {
//     double t = b.NumberOr("real_time", 0.0);
//   }
//
// Deliberately small: no writer, no comments, no trailing commas. Numbers
// parse as double (enough for every field we read); object member order is
// preserved, and duplicate keys keep the first occurrence on lookup.

#include <string>
#include <utility>
#include <vector>

namespace clfd {
namespace json {

struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Value> array;
  // Insertion-ordered members; vector-of-pairs keeps the recursive type
  // complete and the iteration order deterministic.
  std::vector<std::pair<std::string, Value>> object;

  bool IsObject() const { return type == Type::kObject; }
  bool IsArray() const { return type == Type::kArray; }
  bool IsNumber() const { return type == Type::kNumber; }
  bool IsString() const { return type == Type::kString; }

  // Object member lookup; null for non-objects and missing keys.
  const Value* Find(const std::string& key) const;
  // Member `key` as a number / string, or `def` when absent or mistyped.
  double NumberOr(const std::string& key, double def) const;
  std::string StringOr(const std::string& key,
                       const std::string& def) const;
};

// Parses `text` into `*out`. Returns false on malformed input with a
// "line:col: reason" description in `*error` (when non-null). Trailing
// whitespace is allowed; trailing non-whitespace is an error.
bool Parse(const std::string& text, Value* out, std::string* error);

}  // namespace json
}  // namespace clfd
