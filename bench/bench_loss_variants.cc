// Ablation benches for the design choices DESIGN.md calls out beyond the
// paper's tables:
//   (a) L_Sup vs. L_Sup^uw vs. L_Sup^ftr(tau) for several tau (Sec. VII —
//       the paper argues tau is hard to tune; the sweep shows it),
//   (b) mixup beta sweep (paper fixes beta = 16),
//   (c) GCE q sweep (q -> 0 ~ CCE, q = 1 = MAE; Theorem 1 endpoints),
//   (d) auxiliary malicious batch size M (imbalance handling).
// All on the CERT simulation at uniform eta = 0.45.

#include "bench/bench_util.h"

namespace clfd {
namespace {

void Run(const BenchScale& scale) {
  ScaledSetup setup = MakeScaledSetup(DatasetKind::kCert, scale);

  bench::SweepTables tables;
  // A row keyed `key` whose cell, labelled `prefix` + `key`, trains CLFD
  // with the base config as `vary` changes it.
  auto row = [&](const std::string& prefix, const std::string& key,
                 auto vary) {
    ClfdConfig config = setup.config;
    vary(config);
    tables.Row({key}, {prefix + key, "CLFD", config, DatasetKind::kCert,
                       setup.split, NoiseSpec::Uniform(0.45)});
  };

  tables.Table("--- (a) supervised contrastive variants (Sec. VII) ---",
               {"Variant"});
  row("", "L_Sup (weighted)", [](ClfdConfig&) {});
  row("", "L_Sup^uw", [](ClfdConfig& c) {
    c.supcon_variant = SupConVariant::kUnweighted;
  });
  for (double tau : {0.5, 0.7, 0.8, 0.9, 0.95}) {
    row("", "L_Sup^ftr tau=" + bench::Fixed(tau, 2), [tau](ClfdConfig& c) {
      c.supcon_variant = SupConVariant::kFiltered;
      c.filter_tau = tau;
    });
  }

  tables.Table("--- (b) mixup beta sweep (paper: 16) ---", {"beta"});
  for (float beta : {0.16f, 1.0f, 4.0f, 16.0f}) {
    row("beta=", bench::Fixed(beta, 1),
        [beta](ClfdConfig& c) { c.mixup_beta = beta; });
  }

  tables.Table("--- (c) GCE q sweep (paper: 0.7) ---", {"q"});
  for (float q : {0.1f, 0.4f, 0.7f, 1.0f}) {
    row("q=", bench::Fixed(q, 1), [q](ClfdConfig& c) { c.gce_q = q; });
  }

  tables.Table("--- (d) auxiliary malicious batch size M (paper: 20) ---",
               {"M"});
  for (int m_size : {0, 4, 8, 16}) {
    row("M=", std::to_string(m_size),
        [m_size](ClfdConfig& c) { c.aux_batch_size = m_size; });
  }
  tables.Print(scale.seeds);
}

}  // namespace
}  // namespace clfd

int main() {
  return clfd::bench::Main(
      "bench_loss_variants",
      "Loss-variant & hyperparameter ablations (CERT, eta=0.45)", clfd::Run);
}
