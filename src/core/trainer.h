#ifndef FACTORML_CORE_TRAINER_H_
#define FACTORML_CORE_TRAINER_H_

#include <string>

#include "common/status.h"
#include "core/algorithm.h"
#include "core/report.h"
#include "gmm/trainers.h"
#include "join/normalized_relations.h"
#include "kmeans/kmeans.h"
#include "linreg/linreg.h"
#include "logreg/logreg.h"
#include "nn/trainers.h"
#include "storage/buffer_pool.h"

namespace factorml::core {

// The one train entry of each model family. Each is defined in its
// family's program file (gmm/gmm_program.cc, nn/nn_program.cc, ...) next
// to the ModelProgram it runs: build the program, hand it to
// pipeline::RunTraining under `algorithm`, take the model. The strategy
// (data-access plane) and the model are independent, so every family runs
// under M, S and F; all three return the same parameters (up to
// floating-point reordering) and differ in cost, which `report` captures.

/// Trains a GMM by EM. M-GMM is the paper's Algorithm 1: join S with
/// R1..Rq, materialize T on disk, then read T three times per iteration.
/// S-GMM recomputes the join on the fly each pass and assembles every
/// joined tuple before it enters the math. F-GMM (Sec. V-B/V-C) pushes EM
/// through the join: the centered slices PD_Ri, the diagonal quadratic
/// blocks PD^T I_ii PD and the diagonal outer-product blocks of the
/// covariance update are computed once per R tuple per pass and reused
/// for every matching fact tuple, for any number of joins q >= 1.
Result<gmm::GmmParams> TrainGmm(const join::NormalizedRelations& rel,
                                const gmm::GmmOptions& options,
                                Algorithm algorithm,
                                storage::BufferPool* pool,
                                TrainReport* report);

/// Trains a neural network by mini-batch backpropagation; the relations
/// must carry a target column. M-NN runs standard BP over T's rows, S-NN
/// over joined tuples assembled in memory each epoch. F-NN (Sec.
/// VI-A/VI-B) factorizes the first-layer pre-activation as
/// W_S x_S + (W_R1 x_R1 + ... + W_Rq x_Rq + b): the parenthesized partial
/// inner products are computed once per attribute tuple per weight
/// version and reused for every matching fact tuple, and the backward pass
/// reads x_S / x_Ri straight from the base relations (the I/O saving of
/// Eqs. 29/32) while computing the identical gradient.
Result<nn::Mlp> TrainNn(const join::NormalizedRelations& rel,
                        const nn::NnOptions& options, Algorithm algorithm,
                        storage::BufferPool* pool, TrainReport* report);

/// Trains a ridge linear regression (closed form via Gram/cofactor
/// accumulation); requires a target column.
Result<linreg::LinregModel> TrainLinreg(const join::NormalizedRelations& rel,
                                        const linreg::LinregOptions& options,
                                        Algorithm algorithm,
                                        storage::BufferPool* pool,
                                        TrainReport* report);

/// Trains k-means (Lloyd's iterations). F caches per-attribute-tuple
/// squared distances: squared Euclidean distance is block-separable
/// across the join, so F-GMM's centered caches carry over with no cross
/// terms at all.
Result<kmeans::KmeansModel> TrainKmeans(const join::NormalizedRelations& rel,
                                        const kmeans::KmeansOptions& options,
                                        Algorithm algorithm,
                                        storage::BufferPool* pool,
                                        TrainReport* report);

/// Trains a logistic regression (IRLS over the factorized Gram); requires
/// a target column, ideally in [0, 1] (IRLS treats other values as soft
/// labels).
Result<logreg::LogregModel> TrainLogreg(const join::NormalizedRelations& rel,
                                        const logreg::LogregOptions& options,
                                        Algorithm algorithm,
                                        storage::BufferPool* pool,
                                        TrainReport* report);

}  // namespace factorml::core

#endif  // FACTORML_CORE_TRAINER_H_
