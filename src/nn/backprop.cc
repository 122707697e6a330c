#include "nn/backprop.h"

#include "common/opcount.h"
#include "la/ops.h"

namespace factorml::nn::internal {

BackpropEngine::BackpropEngine(Mlp* mlp, double learning_rate)
    : mlp_(mlp), lr_(learning_rate) {
  const size_t layers = mlp_->num_weight_layers();
  FML_CHECK_GE(layers, 2u) << "need at least one hidden layer";
  a_.resize(layers);
  h_.resize(layers);
  delta_.resize(layers);
  mask_.resize(layers);
  raw_h_.resize(layers);
}

void BackpropEngine::ConfigureSgd(double momentum, double weight_decay) {
  FML_CHECK_GE(momentum, 0.0);
  FML_CHECK_LT(momentum, 1.0);
  FML_CHECK_GE(weight_decay, 0.0);
  momentum_ = momentum;
  weight_decay_ = weight_decay;
  // Pre-size the velocity buffers to their steady-state shapes so the
  // checkpoint visitor's double stream is a pure function of Init-time
  // configuration (the lazy sizing in the update hooks then never fires).
  const size_t layers = mlp_->num_weight_layers();
  if (momentum_ > 0.0 || weight_decay_ > 0.0) {
    vel_w_.resize(layers);
    for (size_t l = 0; l < layers; ++l) {
      vel_w_[l].Resize(mlp_->w[l].rows(), mlp_->w[l].cols());
    }
  }
  if (momentum_ > 0.0) {
    vel_b_.resize(layers);
    for (size_t l = 0; l < layers; ++l) {
      vel_b_[l].assign(mlp_->b[l].size(), 0.0);
    }
  }
}

void BackpropEngine::ApplyUpdate(la::Matrix* w, const la::Matrix& grad,
                                 la::Matrix* velocity) {
  FML_CHECK_EQ(w->size(), grad.size());
  if (momentum_ == 0.0 && weight_decay_ == 0.0) {
    ApplyGradient(w, grad, lr_);
    return;
  }
  if (velocity->size() != w->size()) {
    velocity->Resize(w->rows(), w->cols());
  }
  double* wv = w->data();
  double* vv = velocity->data();
  const double* g = grad.data();
  for (size_t i = 0; i < grad.size(); ++i) {
    vv[i] = momentum_ * vv[i] - lr_ * (g[i] + weight_decay_ * wv[i]);
    wv[i] += vv[i];
  }
  CountMults(3 * grad.size());
  CountAdds(3 * grad.size());
}

void BackpropEngine::UpdateW0(const la::Matrix& grad0) {
  if (vel_w_.empty()) vel_w_.resize(mlp_->num_weight_layers());
  ApplyUpdate(&mlp_->w[0], grad0, &vel_w_[0]);
}

void BackpropEngine::EnableDropout(double rate, uint64_t seed) {
  FML_CHECK_GE(rate, 0.0);
  FML_CHECK_LT(rate, 1.0);
  dropout_rate_ = rate;
  if (rate > 0.0) {
    dropout_rng_ = std::make_unique<Rng>(seed);
  }
}

void BackpropEngine::MaybeDropout(size_t layer) {
  if (dropout_rate_ <= 0.0) return;
  // Keep the unmasked activations: the activation derivative in the
  // backward pass is a function of f(a), not of the dropped output.
  raw_h_[layer] = h_[layer];
  la::Matrix& h = h_[layer];
  la::Matrix& mask = mask_[layer];
  if (mask.rows() != h.rows() || mask.cols() != h.cols()) {
    mask.Resize(h.rows(), h.cols());
  }
  const double keep_scale = 1.0 / (1.0 - dropout_rate_);
  double* hv = h.data();
  double* mv = mask.data();
  for (size_t i = 0; i < h.size(); ++i) {
    mv[i] = dropout_rng_->NextDouble() >= dropout_rate_ ? keep_scale : 0.0;
    hv[i] *= mv[i];
  }
  CountMults(h.size());
}

void ApplyGradient(la::Matrix* w, const la::Matrix& grad, double lr) {
  FML_CHECK_EQ(w->size(), grad.size());
  double* dst = w->data();
  const double* g = grad.data();
  for (size_t i = 0; i < grad.size(); ++i) dst[i] -= lr * g[i];
  CountMults(grad.size());
  CountSubs(grad.size());
}

void BackpropEngine::UpdateLayer(size_t l, const la::Matrix& delta,
                                 const la::Matrix& input) {
  if (vel_w_.empty()) vel_w_.resize(mlp_->num_weight_layers());
  la::GemmTN(delta, input, &grad_, /*accumulate=*/false);
  ApplyUpdate(&mlp_->w[l], grad_, &vel_w_[l]);
  UpdateBias(l, delta);
}

void BackpropEngine::UpdateBias(size_t l, const la::Matrix& delta) {
  // Bias gradient: column sums of delta. Weight decay is not applied to
  // biases (standard practice).
  if (vel_b_.empty()) vel_b_.resize(mlp_->num_weight_layers());
  auto& bias = mlp_->b[l];
  auto& vel = vel_b_[l];
  if (momentum_ > 0.0 && vel.size() != bias.size()) {
    vel.assign(bias.size(), 0.0);
  }
  // One row-major sweep; each column still adds its rows in order, so the
  // sums are bit-identical to a per-column walk.
  bias_sum_.assign(bias.size(), 0.0);
  for (size_t r = 0; r < delta.rows(); ++r) {
    const double* row = delta.Row(r).data();
    for (size_t j = 0; j < bias.size(); ++j) bias_sum_[j] += row[j];
  }
  for (size_t j = 0; j < bias.size(); ++j) {
    const double s = bias_sum_[j];
    if (momentum_ > 0.0) {
      vel[j] = momentum_ * vel[j] - lr_ * s;
      bias[j] += vel[j];
    } else {
      bias[j] -= lr_ * s;
    }
  }
  CountAdds(delta.size());
  CountMults(bias.size());
  CountSubs(bias.size());
}

double BackpropEngine::Step(const la::Matrix& a1, const double* y,
                            la::Matrix* delta1) {
  const size_t layers = mlp_->num_weight_layers();
  const size_t batch = a1.rows();
  FML_CHECK_GT(batch, 0u);

  // ---- Forward from the (externally computed) first pre-activation.
  ApplyActivation(mlp_->activation, a1, &h_[0]);
  MaybeDropout(0);
  for (size_t l = 1; l < layers; ++l) {
    la::GemmNT(h_[l - 1], mlp_->w[l], &a_[l], /*accumulate=*/false);
    la::AddRowVector(mlp_->b[l].data(), &a_[l]);
    if (l + 1 < layers) {
      ApplyActivation(mlp_->activation, a_[l], &h_[l]);
      MaybeDropout(l);
    } else {
      h_[l] = a_[l];  // linear output unit
    }
  }

  // ---- Output error: E = 1/(2b) sum (o - y)^2, so dE/dO = (o - y)/b.
  const la::Matrix& out = h_[layers - 1];
  FML_CHECK_EQ(out.cols(), 1u);
  la::Matrix& dout = delta_[layers - 1];
  dout.Resize(batch, 1);
  double sse = 0.0;
  const double inv_b = 1.0 / static_cast<double>(batch);
  for (size_t r = 0; r < batch; ++r) {
    const double e = out(r, 0) - y[r];
    sse += e * e;
    dout(r, 0) = e * inv_b;
  }
  CountSubs(batch);
  CountMults(2 * batch);
  CountAdds(batch);

  // ---- Backward: compute all deltas with the pre-update weights.
  for (size_t l = layers - 1; l >= 1; --l) {
    la::Matrix& prev = delta_[l - 1];
    la::GemmNN(delta_[l], mlp_->w[l], &prev, /*accumulate=*/false);
    // Multiply element-wise by f'(a_{l-1}); layer 0's pre-activation is
    // the caller-provided a1. Under dropout, the chain also passes
    // through the mask, and f' must use the unmasked activations.
    const la::Matrix& pre = (l - 1 == 0) ? a1 : a_[l - 1];
    const la::Matrix& act =
        dropout_rate_ > 0.0 ? raw_h_[l - 1] : h_[l - 1];
    ActivationGrad(mlp_->activation, pre, act, &fprime_);
    double* p = prev.data();
    const double* f = fprime_.data();
    for (size_t i = 0; i < prev.size(); ++i) p[i] *= f[i];
    CountMults(prev.size());
    if (dropout_rate_ > 0.0) {
      const double* m = mask_[l - 1].data();
      for (size_t i = 0; i < prev.size(); ++i) p[i] *= m[i];
      CountMults(prev.size());
    }
  }

  // ---- Updates for layers >= 1 plus the first-layer bias; the caller
  // owns the w[0] gradient (that is where M/S and F differ).
  for (size_t l = 1; l < layers; ++l) {
    UpdateLayer(l, delta_[l], h_[l - 1]);
  }
  UpdateBias(0, delta_[0]);

  *delta1 = delta_[0];
  return sse;
}

}  // namespace factorml::nn::internal
