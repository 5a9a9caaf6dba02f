#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/detector.h"

namespace clfd {

// Factory for every model in the paper's evaluation: "CLFD" plus the eight
// baselines of Tables I/II ("DivMix", "ULC", "Sel-CL", "CTRR", "Few-Shot",
// "CLDet", "DeepLog", "LogBert"). Every model takes `config`: the baselines
// read its shared dimensions, optimizer settings and budget, and "CLDet"
// is a ClfdModel with the "w/o FD" switch on and a cross-entropy
// classifier. Returns nullptr for unknown names.
std::unique_ptr<DetectorModel> MakeModel(const std::string& name,
                                         const ClfdConfig& config,
                                         uint64_t seed);

// Names in the paper's table order.
std::vector<std::string> AllModelNames();
std::vector<std::string> BaselineModelNames();

}  // namespace clfd

