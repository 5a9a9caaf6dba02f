#include "encoders/session_encoder.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "obs/prof.h"
#include "parallel/thread_pool.h"
#include "tensor/arena.h"

namespace clfd {

PaddedBatch BuildPaddedBatch(const std::vector<const Session*>& sessions,
                             const Matrix& embeddings) {
  int batch = static_cast<int>(sessions.size());
  int emb_dim = embeddings.cols();
  // At least one step: an all-empty batch then runs the same zero step with
  // a zero mask that an empty session sees inside a mixed batch.
  int max_len = 1;
  for (const Session* s : sessions) max_len = std::max(max_len, s->length());

  PaddedBatch out;
  out.steps.reserve(max_len);
  out.mean_masks.reserve(max_len);
  for (int t = 0; t < max_len; ++t) {
    Matrix step(batch, emb_dim);
    Matrix mask(batch, 1);
    for (int i = 0; i < batch; ++i) {
      const Session& s = *sessions[i];
      if (t < s.length()) {
        int act = s.activities[t];
        assert(act >= 0 && act < embeddings.rows());
        step.CopyRowFrom(embeddings, act, i);
        mask.at(i, 0) = 1.0f / static_cast<float>(s.length());
      }
    }
    out.steps.push_back(std::move(step));
    out.mean_masks.push_back(std::move(mask));
  }
  return out;
}

SessionEncoder::SessionEncoder(int emb_dim, int hidden_dim, int num_layers,
                               Rng* rng)
    : lstm_(emb_dim, hidden_dim, num_layers, rng),
      input_skip_(emb_dim, hidden_dim, rng) {}

std::vector<ag::Var> SessionEncoder::Parameters() const {
  std::vector<ag::Var> params = lstm_.Parameters();
  auto sp = input_skip_.Parameters();
  params.insert(params.end(), sp.begin(), sp.end());
  return params;
}

ag::Var SessionEncoder::EncodeBatch(
    const std::vector<const Session*>& sessions,
    const Matrix& embeddings) const {
  assert(!sessions.empty());
  PaddedBatch padded = BuildPaddedBatch(sessions, embeddings);
  std::vector<ag::Var> steps;
  steps.reserve(padded.steps.size());
  for (Matrix& m : padded.steps) steps.push_back(ag::Constant(std::move(m)));
  std::vector<ag::Var> hiddens = lstm_.Forward(steps);

  // Masked mean over valid timesteps of the final layer.
  ag::Var acc = ag::RowScaleConst(hiddens[0], padded.mean_masks[0]);
  for (size_t t = 1; t < hiddens.size(); ++t) {
    acc = ag::Add(acc, ag::RowScaleConst(hiddens[t], padded.mean_masks[t]));
  }
  // Residual from the masked-mean input embedding.
  ag::Var input_mean =
      ag::RowScaleConst(steps[0], padded.mean_masks[0]);
  for (size_t t = 1; t < steps.size(); ++t) {
    input_mean = ag::Add(
        input_mean, ag::RowScaleConst(steps[t], padded.mean_masks[t]));
  }
  return ag::Add(acc, input_skip_.Forward(input_mean));
}

Matrix SessionEncoder::EncodeDataset(const SessionDataset& dataset,
                                     const Matrix& embeddings,
                                     int chunk) const {
  CLFD_PROF_SCOPE("encode.dataset");
  const int n = dataset.size();
  Matrix out(n, hidden_dim());
  if (n == 0) return out;
  // Chunks take sessions in stable length order, so each pads to little
  // more than its own sessions' lengths. A row's encoding does not depend
  // on its batch-mates (kernels treat rows independently and the mean is
  // masked), so the order changes no output bit.
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int x, int y) {
    return dataset.sessions[x].session.length() <
           dataset.sessions[y].session.length();
  });
  // Forward-only: concurrent EncodeBatch calls read the shared parameter
  // values but never touch gradients, and each chunk writes its own rows.
  parallel::ParallelFor(0, n, chunk, [&](int64_t lo, int64_t hi) {
    // Per-chunk bump arena for the forward tape; `out` was allocated
    // before the loop so it stays heap-backed. The encoded rows are
    // copied out before the arena dies with the chunk.
    arena::Arena chunk_arena;
    arena::ScopedArena scope(&chunk_arena);
    std::vector<const Session*> batch;
    batch.reserve(hi - lo);
    for (int64_t p = lo; p < hi; ++p) {
      batch.push_back(&dataset.sessions[order[p]].session);
    }
    Matrix encoded = EncodeBatch(batch, embeddings).value();
    for (int64_t p = lo; p < hi; ++p) {
      out.CopyRowFrom(encoded, static_cast<int>(p - lo), order[p]);
    }
  });
  return out;
}

ProjectionHead::ProjectionHead(int in_dim, int out_dim, Rng* rng)
    : fc1_(in_dim, in_dim, rng), fc2_(in_dim, out_dim, rng) {}

ag::Var ProjectionHead::Forward(const ag::Var& z) const {
  return fc2_.Forward(ag::Relu(fc1_.Forward(z)));
}

std::vector<ag::Var> ProjectionHead::Parameters() const {
  std::vector<ag::Var> params = fc1_.Parameters();
  auto p2 = fc2_.Parameters();
  params.insert(params.end(), p2.begin(), p2.end());
  return params;
}

}  // namespace clfd
