#include "recovery/watchdog.h"

#include <sstream>
#include <utility>

namespace clfd {
namespace recovery {

std::string WatchdogReport::Summary() const {
  std::ostringstream os;
  os << "watchdog report: attempts=" << attempts
     << " rollbacks=" << rollbacks
     << " batches_skipped=" << batches_skipped
     << " aborted=" << (aborted ? "yes" : "no");
  if (!last_error.empty()) os << " last_error=\"" << last_error << "\"";
  return os.str();
}

WatchdogAbort::WatchdogAbort(WatchdogReport report)
    : std::runtime_error(report.Summary()), report_(std::move(report)) {}

}  // namespace recovery
}  // namespace clfd
