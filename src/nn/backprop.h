#ifndef FACTORML_NN_BACKPROP_H_
#define FACTORML_NN_BACKPROP_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "la/matrix.h"
#include "nn/mlp.h"

namespace factorml::nn::internal {

/// Shared BP machinery for the three NN trainers. The trainers differ only
/// in how the first-layer pre-activation A1 = W1 * x + b1 is produced (full
/// joined tuples for M-NN/S-NN; factorized partial inner products for
/// F-NN) and in how the W1 gradient [PG_S | PG_R] is accumulated; all
/// layers above the first are mathematically identical across algorithms
/// (the paper shows reuse beyond the first layer is not profitable,
/// Sec. VI-A2), so they live here.
class BackpropEngine {
 public:
  BackpropEngine(Mlp* mlp, double learning_rate);

  /// Enables inverted dropout on the hidden activations (the paper notes
  /// Dropout applied after a layer's activation is compatible with the
  /// factorization, Sec. VI-A). Masks are drawn from a deterministic
  /// stream seeded here; trainers that process identical batch sequences
  /// with the same seed therefore apply identical masks, preserving the
  /// M == S == F exactness property under dropout.
  void EnableDropout(double rate, uint64_t seed);

  /// Configures classical-momentum SGD with optional L2 weight decay:
  ///   v <- momentum * v - lr * (grad + weight_decay * w);  w <- w + v.
  /// Defaults (0, 0) reduce to plain SGD. Deterministic, so the M/S/F
  /// exactness property is unaffected.
  void ConfigureSgd(double momentum, double weight_decay);

  /// Applies the configured update rule to the first-layer weights using
  /// the caller-assembled gradient (the [PG_S | PG_R] split for F-NN).
  void UpdateW0(const la::Matrix& grad0);

  /// One mini-batch update in the transposed epoch layout: every
  /// activation and error block is units x batch, one row per unit with
  /// the batch contiguous (the layout the first-layer strip kernels write).
  /// Given the first-layer pre-activation `a1t` (nh x batch, bias already
  /// added) and targets `y` (length batch), runs the forward pass through
  /// the remaining layers, backpropagates, and updates every parameter
  /// except w[0] (including b[0]). Every product goes through the active
  /// kernel table's `gemm_strip`; under scalar kernels each element
  /// replays the seed's row-major accumulation chain, so the scalar bits
  /// do not depend on the layout. Leaves delta1^T = dE/dA1^T (nh x batch, already scaled
  /// by 1/batch) in delta1t() for the caller to form the w[0] gradient.
  /// Returns the batch's sum of squared errors (before the update).
  double Step(const la::Matrix& a1t, const double* y);

  /// delta1^T of the last Step (nh x batch); valid until the next Step.
  const la::Matrix& delta1t() const { return delta_[0]; }

  double learning_rate() const { return lr_; }

  /// Checkpoint seams: the optimizer state that must survive a restart
  /// for a resumed run to be bit-identical to an uninterrupted one.
  std::vector<la::Matrix>& vel_w() { return vel_w_; }
  std::vector<std::vector<double>>& vel_b() { return vel_b_; }
  Rng* dropout_rng() { return dropout_rng_.get(); }

 private:
  void UpdateLayer(size_t l, const la::Matrix& delta,
                   const la::Matrix& input);

  /// Inverted dropout on h_[layer]; the mask is drawn in (row, unit)
  /// order, so the generator stream does not depend on the layout.
  void MaybeDropout(size_t layer);
  void ApplyUpdate(la::Matrix* w, const la::Matrix& grad,
                   la::Matrix* velocity);
  void UpdateBias(size_t l, const la::Matrix& delta);

  Mlp* mlp_;
  double lr_;
  double momentum_ = 0.0;
  double weight_decay_ = 0.0;
  std::vector<la::Matrix> vel_w_;               // per-layer weight velocity
  std::vector<std::vector<double>> vel_b_;      // per-layer bias velocity
  double dropout_rate_ = 0.0;
  std::unique_ptr<Rng> dropout_rng_;
  // Per-layer blocks, all units x batch.
  std::vector<la::Matrix> a_;      // pre-activations (a_[0] unused)
  std::vector<la::Matrix> h_;      // hidden activations
  std::vector<la::Matrix> delta_;  // error terms
  std::vector<la::Matrix> mask_;   // dropout masks (0 or 1/(1-p))
  std::vector<la::Matrix> raw_h_;  // pre-dropout activations (for f')
  la::Matrix grad_;
  la::Matrix wt_;                 // W_l^T for the backward product
  std::vector<double> ones_;      // batch ones: bias sums in dot form
  std::vector<double> bias_sum_;  // UpdateBias row sums
};

/// at[:, r0:r0+rows] += bias, one contiguous run per unit: the bias add of
/// a units x batch block (uncharged; callers count it with their product).
void AddBias(const std::vector<double>& bias, size_t r0, size_t rows,
             la::Matrix* at);

/// w -= lr * grad and the matching op count (one multiply-subtract per
/// parameter); shared with the trainers' w[0] update.
void ApplyGradient(la::Matrix* w, const la::Matrix& grad, double lr);

}  // namespace factorml::nn::internal

#endif  // FACTORML_NN_BACKPROP_H_
