#pragma once

// The JSON text writers every obs exporter shares: the metrics registry's
// JSON and JSONL, the profiler tree, and the trace file's names and span
// args.

#include <ostream>
#include <string_view>

namespace clfd {
namespace obs {

// Writes `s` as a quoted JSON string, escaping quotes, backslashes and
// control characters.
void AppendJsonString(std::ostream* os, std::string_view s);

// Writes `v` as a JSON number with `digits` significant digits (%g). The
// default of 12 round-trips every value the exporters store and keeps
// integers free of an exponent. JSON has no NaN or infinity, so a
// non-finite value is written as null.
void AppendJsonNumber(std::ostream* os, double v, int digits = 12);

}  // namespace obs
}  // namespace clfd
