#include "baselines/registry.h"

#include "baselines/ctrr.h"
#include "baselines/deeplog.h"
#include "baselines/divmix.h"
#include "baselines/few_shot.h"
#include "baselines/logbert.h"
#include "baselines/selcl.h"
#include "baselines/ulc.h"
#include "core/clfd.h"

namespace clfd {

std::unique_ptr<DetectorModel> MakeModel(const std::string& name,
                                         const ClfdConfig& config,
                                         uint64_t seed) {
  if (name == "CLFD") return std::make_unique<ClfdModel>(config, seed);
  if (name == "DivMix") return std::make_unique<DivMixModel>(config, seed);
  if (name == "ULC") return std::make_unique<UlcModel>(config, seed);
  if (name == "Sel-CL") return std::make_unique<SelClModel>(config, seed);
  if (name == "CTRR") return std::make_unique<CtrrModel>(config, seed);
  if (name == "Few-Shot") return std::make_unique<FewShotModel>(config, seed);
  if (name == "CLDet") {
    // CLDet [3] is CLFD's label corrector deployed alone, its classifier
    // trained with plain cross entropy instead of mixup GCE.
    ClfdConfig cldet = config;
    cldet.use_label_corrector = true;
    cldet.use_fraud_detector = false;
    cldet.classifier_loss = ClassifierLoss::kCce;
    return std::make_unique<ClfdModel>(cldet, seed);
  }
  if (name == "DeepLog") return std::make_unique<DeepLogModel>(config, seed);
  if (name == "LogBert") return std::make_unique<LogBertModel>(config, seed);
  return nullptr;
}

std::vector<std::string> BaselineModelNames() {
  return {"DivMix", "ULC",   "Sel-CL",  "CTRR",
          "Few-Shot", "CLDet", "DeepLog", "LogBert"};
}

std::vector<std::string> AllModelNames() {
  std::vector<std::string> names = BaselineModelNames();
  names.push_back("CLFD");
  return names;
}

}  // namespace clfd
