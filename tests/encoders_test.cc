#include <cstring>

#include <gtest/gtest.h>

#include "autograd/grad_check.h"
#include "encoders/session_encoder.h"
#include "parallel/thread_pool.h"

namespace clfd {
namespace {

Session MakeSession(std::vector<int> acts) {
  Session s;
  s.activities = std::move(acts);
  return s;
}

TEST(PaddedBatchTest, ShapesAndMasks) {
  Rng rng(1);
  Matrix emb = Matrix::Randn(10, 4, 1.0f, &rng);
  Session a = MakeSession({1, 2, 3});
  Session b = MakeSession({4});
  PaddedBatch batch = BuildPaddedBatch({&a, &b}, emb);
  ASSERT_EQ(batch.steps.size(), 3u);
  EXPECT_EQ(batch.steps[0].rows(), 2);
  EXPECT_EQ(batch.steps[0].cols(), 4);
  // Session b is padded after t=0: zero rows and zero mask.
  EXPECT_FLOAT_EQ(batch.mean_masks[0].at(0, 0), 1.0f / 3.0f);
  EXPECT_FLOAT_EQ(batch.mean_masks[0].at(1, 0), 1.0f);
  EXPECT_FLOAT_EQ(batch.mean_masks[1].at(1, 0), 0.0f);
  EXPECT_FLOAT_EQ(batch.steps[1].at(1, 0), 0.0f);
  // Valid rows copy the right embedding.
  EXPECT_FLOAT_EQ(batch.steps[0].at(0, 0), emb.at(1, 0));
  EXPECT_FLOAT_EQ(batch.steps[2].at(0, 2), emb.at(3, 2));
}

TEST(SessionEncoderTest, PaddingInvariance) {
  // Encoding a session alone or alongside a longer session must match:
  // padded timesteps contribute nothing to the masked mean.
  Rng rng(2);
  Matrix emb = Matrix::Randn(10, 5, 1.0f, &rng);
  SessionEncoder enc(5, 6, 2, &rng);
  Session shrt = MakeSession({1, 2});
  Session lng = MakeSession({3, 4, 5, 6, 7, 8});
  Matrix solo = enc.EncodeBatch({&shrt}, emb).value();
  Matrix padded = enc.EncodeBatch({&shrt, &lng}, emb).value();
  EXPECT_LT(MaxAbsDiff(solo, SliceRows(padded, 0, 1)), 1e-5f);
}

bool RowBitsEqual(const Matrix& a, int ra, const Matrix& b, int rb) {
  return a.cols() == b.cols() &&
         std::memcmp(a.row(ra), b.row(rb), sizeof(float) * a.cols()) == 0;
}

// Every row of EncodeDataset must be bitwise the row a solo EncodeBatch of
// that session gives, whatever the chunking and width: chunks run
// in length order and pad to their longest session, so this is what keeps
// the reordering and the padding unobservable.
TEST(SessionEncoderTest, EncodeDatasetMatchesBatch) {
  Rng rng(3);
  const int vocab = 12;
  SessionDataset data;
  data.vocab.resize(vocab);
  for (int i = 0; i < 150; ++i) {
    const int length = i % 5 == 0   ? 0
                       : i % 5 == 1 ? 1
                                    : 2 + rng.UniformInt(60);
    std::vector<int> acts(length);
    for (int& a : acts) a = rng.UniformInt(vocab);
    data.sessions.push_back({MakeSession(std::move(acts))});
  }
  Matrix emb = Matrix::Randn(vocab, 5, 1.0f, &rng);
  SessionEncoder enc(5, 6, 2, &rng);
  std::vector<Matrix> solo;
  for (const LabeledSession& ls : data.sessions) {
    solo.push_back(enc.EncodeBatch({&ls.session}, emb).value());
  }
  for (int width : {1, 2, 4}) {
    parallel::SetGlobalThreads(width);
    for (int chunk : {1, 7, 128}) {
      Matrix all = enc.EncodeDataset(data, emb, chunk);
      ASSERT_EQ(all.rows(), data.size());
      for (int i = 0; i < data.size(); ++i) {
        EXPECT_TRUE(RowBitsEqual(all, i, solo[i], 0))
            << "row " << i << " length " << data.sessions[i].session.length()
            << " width " << width << " chunk " << chunk;
      }
    }
  }
  parallel::SetGlobalThreads(0);
}

// A batch of only empty sessions still runs one zero step, and encodes to
// the row an empty session gets inside a mixed batch.
TEST(SessionEncoderTest, AllEmptyBatchMatchesEmptyRowOfMixedBatch) {
  Rng rng(6);
  Matrix emb = Matrix::Randn(10, 5, 1.0f, &rng);
  SessionEncoder enc(5, 6, 2, &rng);
  Session empty;
  Session other = MakeSession({1, 2, 3});
  Matrix mixed = enc.EncodeBatch({&other, &empty}, emb).value();
  Matrix alone = enc.EncodeBatch({&empty, &empty}, emb).value();
  ASSERT_EQ(alone.rows(), 2);
  EXPECT_TRUE(RowBitsEqual(alone, 0, mixed, 1));
  EXPECT_TRUE(RowBitsEqual(alone, 1, mixed, 1));

  SessionDataset data;
  data.sessions.resize(3);
  Matrix all = enc.EncodeDataset(data, emb);
  ASSERT_EQ(all.rows(), 3);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(RowBitsEqual(all, i, mixed, 1));
}

TEST(SessionEncoderTest, GradCheckThroughMaskedMean) {
  Rng rng(4);
  Matrix emb = Matrix::Randn(8, 3, 1.0f, &rng);
  SessionEncoder enc(3, 4, 1, &rng);
  Session a = MakeSession({1, 2, 3});
  Session b = MakeSession({4, 5});
  auto result = ag::CheckGradients(
      [&](const std::vector<ag::Var>&) {
        ag::Var z = enc.EncodeBatch({&a, &b}, emb);
        return ag::SumAll(ag::Mul(z, z));
      },
      enc.Parameters(), 5e-3f);
  EXPECT_TRUE(result.ok(5e-2f)) << result.max_abs_error;
}

TEST(ProjectionHeadTest, ShapeAndGrad) {
  Rng rng(5);
  ProjectionHead head(6, 4, &rng);
  ag::Var z = ag::Constant(Matrix::Randn(3, 6, 1.0f, &rng));
  ag::Var p = head.Forward(z);
  EXPECT_EQ(p.rows(), 3);
  EXPECT_EQ(p.cols(), 4);
  EXPECT_EQ(head.Parameters().size(), 4u);
}

}  // namespace
}  // namespace clfd
