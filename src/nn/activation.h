#ifndef FACTORML_NN_ACTIVATION_H_
#define FACTORML_NN_ACTIVATION_H_

#include <string>

#include "la/matrix.h"

namespace factorml::nn {

/// Activation functions studied by the paper (Sec. VI-A2). Sigmoid and
/// tanh are not additive, so exact computation sharing is limited to the
/// first layer; identity is additive (the Cauchy functional form), which
/// is what makes the second-layer-reuse ablation expressible; ReLU is
/// additive only when both partial sums share a sign.
enum class Activation {
  kSigmoid,
  kTanh,
  kRelu,
  kIdentity,
};

const char* ActivationName(Activation a);

/// True for activations satisfying f(x + y) = f(x) + f(y) everywhere —
/// the requirement for exact cross-layer computation sharing.
bool IsAdditive(Activation a);

/// h = f(a), element-wise over the batch.
void ApplyActivation(Activation act, const la::Matrix& a, la::Matrix* h);

/// delta *= f'(a) element-wise, in place: the backward pass's activation
/// derivative applied to the error block it scales, with no f' buffer.
/// f' is expressed through the already-computed h where cheaper (sigmoid:
/// h(1-h); tanh: 1-h^2) and rounded as its own factor before the
/// multiply, so each product equals delta * f' computed separately.
void MultiplyActivationGrad(Activation act, const la::Matrix& a,
                            const la::Matrix& h, la::Matrix* delta);

/// Charges MultiplyActivationGrad's ops over n elements — for callers that
/// fuse the multiply into the product that forms delta.
void CountActivationGrad(Activation act, size_t n);

}  // namespace factorml::nn

#endif  // FACTORML_NN_ACTIVATION_H_
