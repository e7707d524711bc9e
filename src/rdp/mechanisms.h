// Analytic RDP curves for the DP mechanisms used in the paper's workloads (§6.2, Fig. 2):
// Laplace, Gaussian, their Poisson-subsampled variants, and compositions.
//
// All formulas assume sensitivity-1 queries and add/remove-one neighbouring datasets.
//   Gaussian(sigma):      eps(alpha) = alpha / (2 sigma^2)                      [Mironov '17]
//   Laplace(b):           eps(alpha) = log( a/(2a-1) e^{(a-1)/b}
//                                           + (a-1)/(2a-1) e^{-a/b} ) / (a-1)   [Mironov '17]
//   Subsampled(base, q):  integer-moment binomial bound
//       A(alpha) = sum_{k=0..alpha} C(alpha,k) q^k (1-q)^{alpha-k} M_k,
//       M_0 = M_1 = 1, M_k = exp((k-1) eps_base(k)),
//       eps(alpha) = log A(alpha) / (alpha - 1)  for integer alpha >= 2.
//   For fractional grid orders, the log-moment log A(alpha) is interpolated linearly in alpha
//   between neighbouring integers (with log A(1) = 0). Because the log-moment function is
//   convex in alpha, linear interpolation yields a valid RDP upper bound.

#ifndef SRC_RDP_MECHANISMS_H_
#define SRC_RDP_MECHANISMS_H_

#include <cstddef>
#include <functional>

#include "src/rdp/rdp_curve.h"

namespace dpack {

// RDP curve of the Gaussian mechanism with noise standard deviation `sigma` > 0.
RdpCurve GaussianCurve(const AlphaGridPtr& grid, double sigma);

// RDP curve of the Laplace mechanism with scale `b` > 0. (A pure-DP guarantee of eps
// corresponds to b = 1 / eps.)
RdpCurve LaplaceCurve(const AlphaGridPtr& grid, double b);

// RDP curve of a Poisson-subsampled mechanism with sampling probability q in [0, 1].
// `base_epsilon_at` must return the base mechanism's RDP epsilon at any *integer* order
// k >= 2 (orders 0 and 1 are handled internally). q == 0 yields the zero curve; q == 1
// falls back to evaluating the base directly on the grid's integer envelope.
RdpCurve SubsampledCurve(const AlphaGridPtr& grid, double q,
                         const std::function<double(int64_t)>& base_epsilon_at);

// Subsampled Gaussian (the DP-SGD accountant curve): sampling rate q, noise sigma.
RdpCurve SubsampledGaussianCurve(const AlphaGridPtr& grid, double sigma, double q);

// Subsampled Laplace: sampling rate q, scale b.
RdpCurve SubsampledLaplaceCurve(const AlphaGridPtr& grid, double b, double q);

// The mechanism families appearing in the paper's workloads.
enum class MechanismType {
  kLaplace,
  kGaussian,
  kSubsampledLaplace,
  kSubsampledGaussian,
  kLaplaceGaussianComposition,   // microbenchmark family 5 (§6.2)
  kComposedSubsampledGaussian,   // DP-SGD training: k-fold subsampled Gaussian (§6.3)
  kComposedGaussian,             // DP-FTRL-style training: k-fold Gaussian (§6.3)
  kCalibratedVShape,             // Synthetic pool curve pinned to a chosen best alpha; built
                                 // by CurvePool against a capacity, not via BuildCurve.
};

// Declarative mechanism description; `BuildCurve` produces the RDP curve.
struct MechanismSpec {
  MechanismType type = MechanismType::kGaussian;
  double noise = 1.0;        // sigma for Gaussian-family, scale b for Laplace-family.
  double sampling_q = 0.01;  // Subsampling probability (subsampled variants only).
  size_t compositions = 1;   // Number of self-compositions (composed variants only).

  RdpCurve BuildCurve(const AlphaGridPtr& grid) const;
};

}  // namespace dpack

#endif  // SRC_RDP_MECHANISMS_H_
