#ifndef FACTORML_NN_TRAINERS_H_
#define FACTORML_NN_TRAINERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline/strategy_options.h"
#include "nn/mlp.h"

namespace factorml::nn {

/// Options shared by the three NN training algorithms. The dataset must
/// carry a target (rel.has_target). All three algorithms perform the same
/// sequence of mini-batch gradient updates (batches are whole FK1-rid
/// groups planned identically; see join/batch_plan.h), so their trained
/// parameters agree up to floating-point reordering.
struct NnOptions : core::pipeline::StrategyOptions {
  /// batch_rows is the mini-batch target size here, hence its own
  /// default. threads parallelize inside each batch (the sequence of
  /// updates is unchanged); shards > 1 is rejected, because the
  /// mini-batch (SGD) plane is sequential.
  NnOptions() { batch_rows = 1024; }

  std::vector<size_t> hidden = {50};  // hidden layer widths (nh first)
  Activation activation = Activation::kSigmoid;
  int epochs = 10;                    // the paper trains for 10 epochs
  double learning_rate = 0.05;
  bool shuffle = false;               // permute R1's keys per epoch (SGD)
  uint64_t seed = 17;                 // weight init + shuffle seed
  /// Inverted dropout rate on the hidden activations (0 disables). The
  /// paper notes Dropout after a layer's activation is compatible with the
  /// factorization (Sec. VI-A); the engine draws masks from a stream
  /// seeded by `seed`, so all three algorithms apply identical masks and
  /// keep producing identical parameters.
  double hidden_dropout = 0.0;
  /// Classical momentum coefficient for SGD (0 = plain SGD) and L2 weight
  /// decay on the weights (never the biases). Both are deterministic and
  /// shared by all three algorithms.
  double momentum = 0.0;
  double weight_decay = 0.0;
  /// F-NN extension beyond the paper: accumulate the first-layer R1
  /// gradient per rid group (sum the deltas of a group, then one outer
  /// product per R1 tuple) instead of one outer product per fact tuple.
  /// The paper treats the backward pass as having no reusable computation
  /// (Sec. VI-A3); this flag demonstrates there is some after all — see
  /// bench/ablation_grouped_backward.
  bool grouped_backward = false;
};

}  // namespace factorml::nn

#endif  // FACTORML_NN_TRAINERS_H_
