#include "nn/activation.h"

#include <cmath>

#include "common/opcount.h"
#include "la/kernels.h"

namespace factorml::nn {

const char* ActivationName(Activation a) {
  switch (a) {
    case Activation::kSigmoid:
      return "sigmoid";
    case Activation::kTanh:
      return "tanh";
    case Activation::kRelu:
      return "relu";
    case Activation::kIdentity:
      return "identity";
  }
  return "?";
}

bool IsAdditive(Activation a) { return a == Activation::kIdentity; }

void ApplyActivation(Activation act, const la::Matrix& a, la::Matrix* h) {
  if (h->rows() != a.rows() || h->cols() != a.cols()) {
    h->Resize(a.rows(), a.cols());
  }
  const size_t n = a.size();
  const double* src = a.data();
  double* dst = h->data();
  switch (act) {
    case Activation::kSigmoid:
      la::Active().sigmoid(src, n, dst);
      CountExps(n);
      break;
    case Activation::kTanh:
      for (size_t i = 0; i < n; ++i) dst[i] = std::tanh(src[i]);
      CountExps(n);
      break;
    case Activation::kRelu:
      for (size_t i = 0; i < n; ++i) dst[i] = src[i] > 0.0 ? src[i] : 0.0;
      break;
    case Activation::kIdentity:
      for (size_t i = 0; i < n; ++i) dst[i] = src[i];
      break;
  }
}

void MultiplyActivationGrad(Activation act, const la::Matrix& a,
                            const la::Matrix& h, la::Matrix* delta) {
  FML_CHECK_EQ(delta->size(), a.size());
  FML_CHECK_EQ(delta->size(), h.size());
  const size_t n = delta->size();
  const double* pre = a.data();
  const double* out = h.data();
  double* p = delta->data();
  switch (act) {
    case Activation::kSigmoid:
      la::Active().sigmoid_grad(out, n, p);
      break;
    case Activation::kTanh:
      for (size_t i = 0; i < n; ++i) p[i] *= 1.0 - out[i] * out[i];
      break;
    case Activation::kRelu:
      for (size_t i = 0; i < n; ++i) p[i] *= pre[i] > 0.0 ? 1.0 : 0.0;
      break;
    case Activation::kIdentity:
      break;  // f' = 1: delta * 1.0 is delta
  }
  CountActivationGrad(act, n);
}

void CountActivationGrad(Activation act, size_t n) {
  // The f' evaluation plus one multiply per element.
  switch (act) {
    case Activation::kSigmoid:
    case Activation::kTanh:
      CountMults(2 * n);
      CountSubs(n);
      break;
    case Activation::kRelu:
    case Activation::kIdentity:
      CountMults(n);
      break;
  }
}

}  // namespace factorml::nn
