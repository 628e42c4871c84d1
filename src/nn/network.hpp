// Dense feed-forward network — the from-scratch FANN replacement.
//
// Deliberately small and transparent: the HMD models in the paper are
// compact MLPs (≈71 KB of float weights) whose inference must route every
// multiply through an ArithmeticContext so the undervolting fault injector
// can perturb products in exactly the place the hardware would.
//
// The inference path (`forward`) takes the context per call; the training
// path (in trainer.cpp) uses a direct exact-arithmetic implementation —
// the paper never trains under undervolting ("no retraining or fine
// tuning is needed"), so training speed is kept free of virtual dispatch.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "nn/activation.hpp"
#include "nn/arithmetic.hpp"

namespace shmd::nn {

/// One dense layer: out_dim x in_dim weights (row-major) plus biases.
struct Layer {
  std::size_t in_dim = 0;
  std::size_t out_dim = 0;
  Activation activation = Activation::kSigmoid;
  std::vector<double> weights;  ///< weights[o * in_dim + i]
  std::vector<double> biases;   ///< biases[o]

  [[nodiscard]] double& w(std::size_t out, std::size_t in) { return weights[out * in_dim + in]; }
  [[nodiscard]] double w(std::size_t out, std::size_t in) const {
    return weights[out * in_dim + in];
  }
};

/// Reusable forward-pass workspace: two ping-pong activation buffers that
/// grow to the widest layer on first use and are then recycled, so
/// steady-state inference through the scratch overload of
/// Network::forward performs zero heap allocations. The widest-layer
/// width is computed once per network and cached here (keyed on the
/// network's identity), so steady-state calls skip the per-call layer
/// scan. One scratch per thread — it is mutable state and must not be
/// shared concurrently.
class ForwardScratch {
 public:
  friend class Network;

 private:
  std::vector<double> a_;
  std::vector<double> b_;
  const void* net_ = nullptr;  ///< network the cached width belongs to
  std::size_t max_width_ = 0;
};

class Network {
 public:
  Network() = default;

  /// Build with Xavier-uniform initial weights, deterministic in `seed`.
  /// `topology` = {in, hidden..., out}; hidden/output activations given
  /// separately (FANN-style: same activation for all hidden layers).
  Network(std::span<const std::size_t> topology, Activation hidden, Activation output,
          std::uint64_t seed);

  [[nodiscard]] std::size_t input_dim() const;
  [[nodiscard]] std::size_t output_dim() const;
  [[nodiscard]] std::size_t num_layers() const noexcept { return layers_.size(); }
  [[nodiscard]] Layer& layer(std::size_t i) { return layers_.at(i); }
  [[nodiscard]] const Layer& layer(std::size_t i) const { return layers_.at(i); }

  /// Total number of MAC operations one inference performs (= number of
  /// weights); drives the latency/energy models.
  [[nodiscard]] std::size_t mac_count() const noexcept;
  /// Trainable parameter count (weights + biases).
  [[nodiscard]] std::size_t parameter_count() const noexcept;
  /// Model storage footprint assuming float32 parameters, as deployed
  /// (the paper's "every HMD takes 71 KB of memory").
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

  /// Inference with every product routed through `ctx`.
  [[nodiscard]] std::vector<double> forward(std::span<const double> input,
                                            ArithmeticContext& ctx) const;

  /// Allocation-free inference: activations live in `scratch`, which is
  /// grown once and reused across calls. The returned span aliases
  /// `scratch` and is valid until its next use.
  [[nodiscard]] std::span<const double> forward(std::span<const double> input,
                                                ArithmeticContext& ctx,
                                                ForwardScratch& scratch) const;

  /// Batched inference over a windows-major tile: `x` holds `rows` input
  /// rows of input_dim() each (x[r * input_dim() + i]); the result span
  /// holds rows * output_dim() values, y[r * output_dim() + o]. Layers
  /// run tile-at-a-time through ctx.gemm, each layer visiting rows in
  /// ascending order with each (row, output) cell accumulated under the
  /// lane-blocked contract of src/nn/kernels/kernels.hpp (the documented
  /// gemm fallback order). For a
  /// stateless context (exact) every row's result is bit-identical to
  /// forward() on that row. A stateful context (the fault injector)
  /// consumes its stream layer-major across the tile — deterministic in
  /// (context state, tile), but a different interleaving than calling
  /// forward() row by row; callers needing per-item streams re-anchor the
  /// generator at item boundaries and batch per item (see
  /// hmd::RequestScorer). The returned span aliases `scratch`
  /// (grown to rows x widest-layer once, then reused) and is valid until
  /// its next use.
  [[nodiscard]] std::span<const double> forward_batch(std::span<const double> x, std::size_t rows,
                                                      ArithmeticContext& ctx,
                                                      ForwardScratch& scratch) const;

  /// Convenience: exact-arithmetic inference.
  [[nodiscard]] std::vector<double> forward(std::span<const double> input) const;

  /// FANN-style text serialization.
  void save(std::ostream& os) const;
  [[nodiscard]] static Network load(std::istream& is);

 private:
  std::vector<Layer> layers_;
};

}  // namespace shmd::nn
