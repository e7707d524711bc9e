// Two-level version clock over the block population: the root is the sum of all
// block versions, the inner level sums versions per group of 64 consecutive ids. Every
// version bump (Commit, effective unlock) is pushed into the tree by the block itself, so
// consumers detect "anything changed?" in O(1) and locate the changed blocks in
// O(groups + changed) instead of scanning every block's version each cycle.
//
// Invariant: group_sum(g) == sum of version() over blocks with id >> kGroupShift == g, and
// total() == sum of all group sums. Versions are monotone, so the sums are monotone and a
// group-sum change is equivalent to "some member's version advanced" — no cancellation is
// possible. BlockManager maintains the invariant across AddBlock, Clone, and Restore
// (restored blocks carry nonzero versions, which are folded into the sums), which makes the
// tree a pure function of block state: identical across engines, clones, and resumed runs.

#ifndef SRC_BLOCK_VERSION_TREE_H_
#define SRC_BLOCK_VERSION_TREE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dpack {

class BlockVersionTree {
 public:
  // 64 blocks per group: at 1M blocks the per-consumer scan is ~16k group sums (one cache
  // line covers 8), and a single dirty block narrows the drill-down to 64 candidates.
  static constexpr size_t kGroupShift = 6;

  static constexpr size_t GroupOf(int64_t id) {
    return static_cast<size_t>(id) >> kGroupShift;
  }

  // Grows the group array to cover `id`. Called on every AddBlock before the block can bump.
  void Track(int64_t id) {
    size_t group = GroupOf(id);
    if (group >= groups_.size()) {
      groups_.resize(group + 1, 0);
    }
  }

  // Records one version bump of block `id`. Requires Track(id) to have been called.
  void OnBump(int64_t id) {
    ++groups_[GroupOf(id)];
    ++total_;
  }

  // Folds a restored block's pre-existing version into the sums (Restore only), keeping the
  // sum-of-versions invariant for managers rebuilt from checkpoints.
  void SeedVersion(int64_t id, uint64_t version) {
    Track(id);
    groups_[GroupOf(id)] += version;
    total_ += version;
  }

  uint64_t total() const { return total_; }
  size_t group_count() const { return groups_.size(); }
  uint64_t group_sum(size_t group) const { return groups_[group]; }

 private:
  std::vector<uint64_t> groups_;
  uint64_t total_ = 0;
};

// The drill-down for consumers that mirror block versions. `seen` is the consumer's copy of
// the group sums at its last visit and `last_version` its copy of each known block's version
// (both updated here). Calls `changed(id)`, in ascending id order, for every known block
// whose `version_of(id)` moved, after recording the new version. Only members of groups whose
// sum moved are inspected: O(groups + their members), never a scan of every block's version.
template <typename VersionOf, typename Changed>
void ForEachChangedBlock(const BlockVersionTree& tree, std::vector<uint64_t>& seen,
                         std::vector<uint64_t>& last_version, VersionOf&& version_of,
                         Changed&& changed) {
  seen.resize(tree.group_count(), 0);
  for (size_t group = 0; group < seen.size(); ++group) {
    uint64_t sum = tree.group_sum(group);
    if (sum == seen[group]) {
      continue;
    }
    seen[group] = sum;
    size_t begin = group << BlockVersionTree::kGroupShift;
    size_t end = std::min(begin + (size_t{1} << BlockVersionTree::kGroupShift),
                          last_version.size());
    for (size_t id = begin; id < end; ++id) {
      uint64_t version = version_of(id);
      if (version != last_version[id]) {
        last_version[id] = version;
        changed(id);
      }
    }
  }
}

}  // namespace dpack

#endif  // SRC_BLOCK_VERSION_TREE_H_
