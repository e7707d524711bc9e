#include "src/rdp/mechanisms.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "src/common/check.h"

namespace dpack {

namespace {

// log(e^a + e^b) without overflow.
double LogSumExp2(double a, double b) {
  double m = std::max(a, b);
  if (m == -std::numeric_limits<double>::infinity()) {
    return m;
  }
  return m + std::log(std::exp(a - m) + std::exp(b - m));
}

double LogSumExp(const std::vector<double>& xs) {
  double m = -std::numeric_limits<double>::infinity();
  for (double x : xs) {
    m = std::max(m, x);
  }
  if (m == -std::numeric_limits<double>::infinity()) {
    return m;
  }
  double s = 0.0;
  for (double x : xs) {
    s += std::exp(x - m);
  }
  return m + std::log(s);
}

// log C(n, k) for integers 0 <= k <= n.
double LogChoose(int64_t n, int64_t k) {
  return std::lgamma(static_cast<double>(n) + 1.0) - std::lgamma(static_cast<double>(k) + 1.0) -
         std::lgamma(static_cast<double>(n - k) + 1.0);
}

// Laplace RDP epsilon at a (possibly fractional) order alpha > 1, scale b > 0, computed in
// the log domain for stability at large alpha / small b. [Mironov '17, Prop. 6]
double LaplaceEpsilonAt(double alpha, double b) {
  double t1 = std::log(alpha / (2.0 * alpha - 1.0)) + (alpha - 1.0) / b;
  double t2 = std::log((alpha - 1.0) / (2.0 * alpha - 1.0)) - alpha / b;
  return LogSumExp2(t1, t2) / (alpha - 1.0);
}

// log A(alpha) of the subsampled mechanism at integer order alpha >= 2, where A is the
// binomially-expanded moment (see header).
double SubsampledLogMoment(int64_t alpha, double q,
                           const std::function<double(int64_t)>& base_epsilon_at) {
  std::vector<double> terms;
  terms.reserve(static_cast<size_t>(alpha) + 1);
  double log_q = q > 0.0 ? std::log(q) : -std::numeric_limits<double>::infinity();
  double log_1mq = q < 1.0 ? std::log1p(-q) : -std::numeric_limits<double>::infinity();
  for (int64_t k = 0; k <= alpha; ++k) {
    double log_moment_k = 0.0;  // log M_k; M_0 = M_1 = 1.
    if (k >= 2) {
      log_moment_k = (static_cast<double>(k) - 1.0) * base_epsilon_at(k);
    }
    double log_coeff = LogChoose(alpha, k);
    double log_qk = (k == 0) ? 0.0 : static_cast<double>(k) * log_q;
    double log_q1k = (alpha == k) ? 0.0 : static_cast<double>(alpha - k) * log_1mq;
    if (std::isinf(log_qk) || std::isinf(log_q1k)) {
      continue;  // Zero-probability term.
    }
    terms.push_back(log_coeff + log_qk + log_q1k + log_moment_k);
  }
  DPACK_CHECK(!terms.empty());
  // A(alpha) >= (1-q)^alpha + alpha q (1-q)^(alpha-1) + ... >= probability mass, and the
  // k=0/k=1 terms alone sum to something <= 1, so log A can be slightly negative only through
  // floating-point slack; the bound is still valid but we clamp to zero (RDP eps >= 0).
  return std::max(0.0, LogSumExp(terms));
}

}  // namespace

RdpCurve GaussianCurve(const AlphaGridPtr& grid, double sigma) {
  DPACK_CHECK(sigma > 0.0);
  std::vector<double> eps(grid->size());
  for (size_t i = 0; i < grid->size(); ++i) {
    eps[i] = grid->order(i) / (2.0 * sigma * sigma);
  }
  return RdpCurve(grid, std::move(eps));
}

RdpCurve LaplaceCurve(const AlphaGridPtr& grid, double b) {
  DPACK_CHECK(b > 0.0);
  std::vector<double> eps(grid->size());
  for (size_t i = 0; i < grid->size(); ++i) {
    eps[i] = LaplaceEpsilonAt(grid->order(i), b);
  }
  return RdpCurve(grid, std::move(eps));
}

RdpCurve SubsampledCurve(const AlphaGridPtr& grid, double q,
                         const std::function<double(int64_t)>& base_epsilon_at) {
  DPACK_CHECK(q >= 0.0 && q <= 1.0);
  if (q == 0.0) {
    return RdpCurve(grid);
  }
  // Cache log A at the integer orders we need: 1..ceil(max grid order).
  int64_t max_int = static_cast<int64_t>(std::ceil(grid->order(grid->size() - 1)));
  std::vector<double> log_moment(static_cast<size_t>(max_int) + 1, 0.0);  // log A(1) = 0.
  for (int64_t a = 2; a <= max_int; ++a) {
    log_moment[static_cast<size_t>(a)] = SubsampledLogMoment(a, q, base_epsilon_at);
  }
  std::vector<double> eps(grid->size());
  for (size_t i = 0; i < grid->size(); ++i) {
    double alpha = grid->order(i);
    double floor_a = std::floor(alpha);
    double log_a;
    if (floor_a == alpha) {
      log_a = log_moment[static_cast<size_t>(alpha)];
    } else {
      // Linear interpolation of the convex log-moment function between integer orders
      // (upper-bounds the true log-moment, hence yields valid RDP).
      double lo = log_moment[static_cast<size_t>(floor_a)];
      double hi = log_moment[static_cast<size_t>(floor_a) + 1];
      double frac = alpha - floor_a;
      log_a = lo * (1.0 - frac) + hi * frac;
    }
    eps[i] = log_a / (alpha - 1.0);
  }
  return RdpCurve(grid, std::move(eps));
}

RdpCurve SubsampledGaussianCurve(const AlphaGridPtr& grid, double sigma, double q) {
  DPACK_CHECK(sigma > 0.0);
  return SubsampledCurve(grid, q, [sigma](int64_t k) {
    return static_cast<double>(k) / (2.0 * sigma * sigma);
  });
}

RdpCurve SubsampledLaplaceCurve(const AlphaGridPtr& grid, double b, double q) {
  DPACK_CHECK(b > 0.0);
  return SubsampledCurve(grid, q, [b](int64_t k) {
    return LaplaceEpsilonAt(static_cast<double>(k), b);
  });
}

RdpCurve MechanismSpec::BuildCurve(const AlphaGridPtr& grid) const {
  switch (type) {
    case MechanismType::kLaplace:
      return LaplaceCurve(grid, noise);
    case MechanismType::kGaussian:
      return GaussianCurve(grid, noise);
    case MechanismType::kSubsampledLaplace:
      return SubsampledLaplaceCurve(grid, noise, sampling_q);
    case MechanismType::kSubsampledGaussian:
      return SubsampledGaussianCurve(grid, noise, sampling_q);
    case MechanismType::kLaplaceGaussianComposition:
      return LaplaceCurve(grid, noise) + GaussianCurve(grid, noise);
    case MechanismType::kComposedSubsampledGaussian:
      return SubsampledGaussianCurve(grid, noise, sampling_q).Repeat(compositions);
    case MechanismType::kComposedGaussian:
      return GaussianCurve(grid, noise).Repeat(compositions);
    case MechanismType::kCalibratedVShape:
      DPACK_CHECK_MSG(false,
                      "calibrated curves are built by CurvePool against a block capacity");
      break;
  }
  DPACK_CHECK_MSG(false, "unhandled mechanism type");
  return RdpCurve(grid);
}

}  // namespace dpack
