#include "nn/backprop.h"

#include "common/opcount.h"
#include "la/kernels.h"

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
  const size_t units = h.rows();
  const size_t batch = h.cols();
  double* hv = h.data();
  double* mv = mask.data();
  for (size_t r = 0; r < batch; ++r) {
    for (size_t u = 0; u < units; ++u) {
      const size_t i = u * batch + r;
      mv[i] = dropout_rng_->NextDouble() >= dropout_rate_ ? keep_scale : 0.0;
      hv[i] *= mv[i];
    }
  }
  CountMults(h.size());
}

void AddBias(const std::vector<double>& bias, size_t r0, size_t rows,
             la::Matrix* at) {
  const size_t batch = at->cols();
  for (size_t u = 0; u < bias.size(); ++u) {
    const double bu = bias[u];
    double* row = at->data() + u * batch + r0;
    for (size_t r = 0; r < rows; ++r) row[r] += bu;
  }
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
  // G_l = delta_l^T (h_{l-1}^T)^T: dot form, both blocks contiguous along
  // the batch.
  const size_t units = delta.rows();
  const size_t fan_in = input.rows();
  const size_t batch = delta.cols();
  grad_.Reshape(units, fan_in);
  la::Active().gemm_strip(delta.data(), batch, input.data(), batch, units,
                          fan_in, batch, grad_.data(), fan_in,
                          /*trans_b=*/true, /*accumulate=*/false);
  CountMults(batch * units * fan_in);
  CountAdds(batch * units * fan_in);
  ApplyUpdate(&mlp_->w[l], grad_, &vel_w_[l]);
  UpdateBias(l, delta);
}

void BackpropEngine::UpdateBias(size_t l, const la::Matrix& delta) {
  // Bias gradient: the row sums of delta^T, in dot form against a row of
  // ones (x * 1.0 is exact, so each sum adds its batch entries in order).
  // Weight decay is not applied to biases (standard practice).
  if (vel_b_.empty()) vel_b_.resize(mlp_->num_weight_layers());
  auto& bias = mlp_->b[l];
  auto& vel = vel_b_[l];
  if (momentum_ > 0.0 && vel.size() != bias.size()) {
    vel.assign(bias.size(), 0.0);
  }
  const size_t batch = delta.cols();
  if (ones_.size() != batch) ones_.assign(batch, 1.0);
  bias_sum_.resize(bias.size());
  la::Active().gemm_strip(delta.data(), batch, ones_.data(), batch,
                          bias.size(), 1, batch, bias_sum_.data(), 1,
                          /*trans_b=*/true, /*accumulate=*/false);
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

double BackpropEngine::Step(const la::Matrix& a1t, const double* y) {
  const la::Kernels& kern = la::Active();
  const size_t layers = mlp_->num_weight_layers();
  const size_t batch = a1t.cols();
  FML_CHECK_GT(batch, 0u);
  FML_CHECK_EQ(a1t.rows(), mlp_->first_hidden_units());

  // ---- Forward from the (externally computed) first pre-activation:
  // a_l^T = W_l h_{l-1}^T + b_l, axpy form over whole batch rows; the
  // output unit is the same call with one row.
  ApplyActivation(mlp_->activation, a1t, &h_[0]);
  MaybeDropout(0);
  for (size_t l = 1; l < layers; ++l) {
    const la::Matrix& w = mlp_->w[l];
    const size_t units = w.rows();
    const size_t fan_in = w.cols();
    la::Matrix& a = a_[l];
    a.Reshape(units, batch);
    kern.gemm_strip(w.data(), fan_in, h_[l - 1].data(), batch, units, batch,
                    fan_in, a.data(), batch, /*trans_b=*/false,
                    /*accumulate=*/false);
    AddBias(mlp_->b[l], 0, batch, &a);
    CountMults(units * batch * fan_in);
    CountAdds(units * batch * fan_in + units * batch);
    if (l + 1 < layers) {
      ApplyActivation(mlp_->activation, a, &h_[l]);
      MaybeDropout(l);
    }
  }

  // ---- Output error: E = 1/(2b) sum (o - y)^2, so dE/dO = (o - y)/b.
  const la::Matrix& out = a_[layers - 1];  // linear output unit
  FML_CHECK_EQ(out.rows(), 1u);
  la::Matrix& dout = delta_[layers - 1];
  dout.Reshape(1, batch);
  double sse = 0.0;
  const double inv_b = 1.0 / static_cast<double>(batch);
  for (size_t r = 0; r < batch; ++r) {
    const double e = out.data()[r] - y[r];
    sse += e * e;
    dout.data()[r] = e * inv_b;
  }
  CountSubs(batch);
  CountMults(2 * batch);
  CountAdds(batch);

  // ---- Backward: compute all deltas with the pre-update weights.
  // delta_{l-1}^T = W_l^T delta_l^T in axpy form, then scaled in place by
  // f'(a_{l-1}) (and the dropout mask).
  for (size_t l = layers - 1; l >= 1; --l) {
    const la::Matrix& w = mlp_->w[l];
    const size_t units = w.rows();
    const size_t fan_in = w.cols();
    la::Matrix& prev = delta_[l - 1];
    prev.Reshape(fan_in, batch);
    CountMults(fan_in * batch * units);
    CountAdds(fan_in * batch * units);
    if (units == 1 && mlp_->activation == Activation::kSigmoid &&
        dropout_rate_ <= 0.0) {
      // A one-unit layer (the output unit) above a sigmoid layer: the
      // k = 1 product and the f' multiply in one sweep, with the bits of
      // gemm_strip followed by MultiplyActivationGrad.
      kern.sigmoid_backward(w.data(), fan_in, delta_[l].data(), batch,
                            h_[l - 1].data(), batch, prev.data());
      CountActivationGrad(mlp_->activation, prev.size());
      continue;
    }
    const double* wt = w.data();  // a one-row W is its own transpose
    if (units > 1) {
      wt_.Reshape(fan_in, units);
      for (size_t p = 0; p < units; ++p) {
        for (size_t j = 0; j < fan_in; ++j) wt_(j, p) = w(p, j);
      }
      wt = wt_.data();
    }
    kern.gemm_strip(wt, units, delta_[l].data(), batch, fan_in, batch, units,
                    prev.data(), batch, /*trans_b=*/false,
                    /*accumulate=*/false);
    // Layer 0's pre-activation is the caller-provided a1t. Under dropout
    // the chain also passes through the mask, and f' must use the
    // unmasked activations.
    const la::Matrix& pre = (l - 1 == 0) ? a1t : a_[l - 1];
    const la::Matrix& act =
        dropout_rate_ > 0.0 ? raw_h_[l - 1] : h_[l - 1];
    MultiplyActivationGrad(mlp_->activation, pre, act, &prev);
    if (dropout_rate_ > 0.0) {
      double* p = prev.data();
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
  return sse;
}

}  // namespace factorml::nn::internal
