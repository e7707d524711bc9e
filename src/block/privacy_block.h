// A privacy block: a data partition with a finite, non-replenishable RDP budget guarded by a
// Rényi privacy filter (§2.3, §3.4).
//
// The block's total per-order capacity is derived from the global (eps_g, delta_g)-DP
// guarantee via `BlockCapacityCurve`. A demand is admissible if, after charging it, the
// cumulative consumption stays within capacity for *at least one* Rényi order — the
// "exists alpha" semantic of the privacy knapsack (Eq. 5) and of Rényi filters, which is what
// lets translation to traditional DP pick the single best order.
//
// For online scheduling, only a fraction of the capacity is unlocked at a time
// (min(ceil((t - t_j)/T), N)/N, §3.4); admission during scheduling is checked against the
// unlocked capacity, which is always <= total capacity, so the filter guarantee is preserved.

#ifndef SRC_BLOCK_PRIVACY_BLOCK_H_
#define SRC_BLOCK_PRIVACY_BLOCK_H_

#include <cstdint>
#include <string>

#include "src/rdp/rdp_curve.h"

namespace dpack {

using BlockId = int64_t;

class BlockVersionTree;

// The admission rule, written once. A tiny relative slack absorbs accumulation round-off
// (e.g. N equal demands summing to exactly the capacity); the 1e-9-level overshoot is
// immaterial to the DP guarantee. Every budget check outside the exact solvers goes through
// the two predicates below.
inline double AdmissionSlack(double cap) { return 1e-9 * (1.0 + cap); }

// True iff `value` fits within `cap` up to the admission slack.
inline bool WithinCapacity(double value, double cap) { return value <= cap + AdmissionSlack(cap); }

// True iff an order that has consumed `consumed` of `cap` keeps no more than the admission
// slack: it can never admit a meaningful demand again.
inline bool OrderExhausted(double consumed, double cap) {
  return !(consumed + AdmissionSlack(cap) < cap);
}

class PrivacyBlock {
 public:
  // A block with explicit per-order capacity, arriving at `arrival_time` (virtual time).
  // `initial_unlocked` in [0, 1] sets the starting unlocked fraction: 1 for offline systems,
  // 0 for online blocks whose budget unlocks over time.
  PrivacyBlock(BlockId id, RdpCurve capacity, double arrival_time,
               double initial_unlocked = 1.0);

  // Convenience: capacity derived from a global (eps_g, delta_g)-DP guarantee.
  PrivacyBlock(BlockId id, const AlphaGridPtr& grid, double eps_g, double delta_g,
               double arrival_time, double initial_unlocked = 1.0);

  // Rebuilds a block from checkpointed state, byte-identically: the consumed curve and the
  // monotonic version counter are restored exactly as captured, so a restored manager's
  // change-detection clocks stay comparable with the uninterrupted run's. Requires
  // `consumed` on the capacity's grid with non-negative, non-NaN entries (checkpoint
  // restore validates structure before calling; these checks are the last line of defense).
  static PrivacyBlock Restore(BlockId id, RdpCurve capacity, double arrival_time,
                              double unlocked_fraction, RdpCurve consumed, uint64_t version);

  // A copy is a detached trial state (e.g. BlockManager::Clone before re-sinking): it keeps
  // the version but reports bumps to no tree until its owner re-attaches one. A move keeps
  // the sink — vector reallocation moves blocks that stay managed.
  PrivacyBlock(const PrivacyBlock& other);
  PrivacyBlock& operator=(const PrivacyBlock& other);
  PrivacyBlock(PrivacyBlock&&) = default;
  PrivacyBlock& operator=(PrivacyBlock&&) = default;

  BlockId id() const { return id_; }
  double arrival_time() const { return arrival_time_; }
  const AlphaGridPtr& grid() const { return capacity_.grid(); }

  const RdpCurve& capacity() const { return capacity_; }
  const RdpCurve& consumed() const { return consumed_; }

  // Fraction of the total capacity currently unlocked, in [0, 1]. Starts fully unlocked
  // (offline setting); the online scheduler drives it via SetUnlockedFraction.
  double unlocked_fraction() const { return unlocked_fraction_; }
  void SetUnlockedFraction(double fraction);

  // Monotonic state version, bumped on every state change that can alter the available
  // capacity: each Commit and each *effective* unlock increase (SetUnlockedFraction calls
  // that do not raise the fraction leave it untouched). Invariant: equal versions observed
  // at two points in time imply bit-identical AvailableCurve() results, which is what lets
  // the incremental scheduling engine (IncrementalEngine) skip rescoring tasks whose blocks
  // did not change between cycles.
  uint64_t version() const { return version_; }

  // Attaches the version tree every future bump is reported to (nullptr detaches). Owned by
  // the managing BlockManager; the block never outlives it.
  void set_version_sink(BlockVersionTree* sink) { sink_ = sink; }

  // Unlocked capacity at order `alpha_index`: unlocked_fraction * capacity(alpha).
  double UnlockedCapacityAt(size_t alpha_index) const;

  // Remaining unlocked capacity at one order, clamped at zero — AvailableCurve's per-order
  // value without materializing the curve.
  double AvailableAt(size_t alpha_index) const;

  // Remaining unlocked capacity per order, clamped at zero:
  // max(0, unlocked_fraction * capacity(alpha) - consumed(alpha)). This is the c_j(alpha)
  // that scheduling heuristics normalize demands by.
  RdpCurve AvailableCurve() const;

  // Filter admission check: true iff there exists a usable order alpha with
  // WithinCapacity(consumed(alpha) + demand(alpha), unlocked capacity(alpha)).
  bool CanAccept(const RdpCurve& demand) const;

  // Charges `demand` to the block. Requires CanAccept(demand).
  void Commit(const RdpCurve& demand);

  // True when every usable order of the *total* capacity is OrderExhausted; the block can
  // never admit another meaningful demand (§2.3). It stays in its manager: CanAccept
  // already rejects every demand it sees.
  bool Exhausted() const;

  std::string DebugString() const;

 private:
  // Bumps version_ and reports it to the attached tree.
  void BumpVersion();

  BlockId id_;
  RdpCurve capacity_;
  RdpCurve consumed_;
  double arrival_time_;
  double unlocked_fraction_ = 1.0;
  uint64_t version_ = 0;
  BlockVersionTree* sink_ = nullptr;
};

}  // namespace dpack

#endif  // SRC_BLOCK_PRIVACY_BLOCK_H_
