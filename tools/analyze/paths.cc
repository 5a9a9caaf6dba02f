#include "analyze/paths.h"

#include "analyze/text.h"

namespace clfd {
namespace analyze {

bool IsHeaderPath(const std::string& path) {
  return EndsWith(path, ".h") || EndsWith(path, ".hpp");
}

bool IsInfraAllowlisted(const std::string& path) {
  return StartsWith(path, "src/obs/") || StartsWith(path, "src/parallel/") ||
         StartsWith(path, "src/common/rng.") ||
         StartsWith(path, "src/common/check.") ||
         StartsWith(path, "src/common/fault.") ||
         StartsWith(path, "src/tensor/arena.");
}

bool IsPlanProtocolAllowlisted(const std::string& path) {
  return StartsWith(path, "src/plan/") || StartsWith(path, "src/autograd/");
}

bool IsPlanCaptureSite(const std::string& path) {
  return StartsWith(path, "src/plan/") ||
         StartsWith(path, "src/core/classifier_trainer.") ||
         StartsWith(path, "src/encoders/sharded_step.");
}

}  // namespace analyze
}  // namespace clfd
