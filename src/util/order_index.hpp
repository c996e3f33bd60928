// Order-statistics index over a strictly increasing set of double keys.
//
// This is the positional backbone of model::IntervalStore: a balanced
// binary search tree (a treap with deterministic priorities) whose in-order
// sequence is the sorted key set, augmented with subtree counts so that
// rank and select run in O(log n). Nodes live in a slab vector and are
// addressed by a NodeId that never changes after insertion — an insert
// anywhere in the key order moves no existing node, which is what gives
// the interval store its stable handles.
//
// Supported operations (n = number of keys):
//   insert            O(log n) expected   new key anywhere in the order
//   find / last_leq   O(log n)            exact lookup / predecessor
//   select / rank     O(log n)            position <-> node translation
//   front / back      O(log n)
//   erase             O(log n) expected   retire a key; its id is recycled
//
// Erased ids go onto a free list and are handed out again by later inserts,
// so the slab footprint is bounded by the peak number of *live* keys — the
// property horizon compaction relies on. A dead slot answers is_live(id)
// false until its id is reused.
//
// Priorities are derived from the node id through the splitmix64 finalizer,
// so the tree shape is a deterministic function of the insertion/erase
// sequence — runs are reproducible without any global RNG state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pss::util {

class OrderIndex {
 public:
  using NodeId = std::uint32_t;
  static constexpr NodeId kNull = 0xffffffffu;

  /// Number of live keys (erased slots excluded).
  [[nodiscard]] std::size_t size() const { return count_of(root_); }
  [[nodiscard]] bool empty() const { return root_ == kNull; }

  /// Total slab slots ever allocated (live + dead awaiting reuse). Ids are
  /// always < slab_size().
  [[nodiscard]] std::size_t slab_size() const { return nodes_.size(); }

  /// True iff `id` currently addresses a live key.
  [[nodiscard]] bool is_live(NodeId id) const {
    return std::size_t(id) < nodes_.size() && nodes_[id].count > 0;
  }

  /// Drops all keys (slab storage is kept for reuse).
  void clear() {
    nodes_.clear();
    free_.clear();
    root_ = kNull;
  }

  /// Inserts a key that must not already be present; returns its stable id.
  /// Ids are allocated densely (0, 1, 2, ... in insertion order) until an
  /// erase happens; after that, freed ids are recycled LIFO before the slab
  /// grows again.
  NodeId insert(double key);

  /// Removes a live key. Its id immediately answers is_live() false and is
  /// queued for reuse by a later insert.
  void erase(NodeId id);

  /// Id of the node holding exactly `key`, or kNull.
  [[nodiscard]] NodeId find(double key) const;

  /// Id of the largest key <= `key`, or kNull if every key is greater.
  [[nodiscard]] NodeId last_leq(double key) const;

  /// Id of the `pos`-th smallest key (0-based); pos must be < size().
  [[nodiscard]] NodeId select(std::size_t pos) const;

  /// Number of keys strictly smaller than the node's key.
  [[nodiscard]] std::size_t rank(NodeId id) const;

  /// Smallest / largest key's node, or kNull when empty.
  [[nodiscard]] NodeId front() const;
  [[nodiscard]] NodeId back() const;

  [[nodiscard]] double key(NodeId id) const { return nodes_[id].key; }

 private:
  struct Node {
    double key = 0.0;
    NodeId left = kNull;
    NodeId right = kNull;
    NodeId parent = kNull;
    std::uint32_t count = 1;  // subtree size; 0 marks a dead (erased) slot
  };

  [[nodiscard]] std::uint32_t count_of(NodeId id) const {
    return id == kNull ? 0u : nodes_[id].count;
  }
  void pull_count(NodeId id) {
    nodes_[id].count =
        1 + count_of(nodes_[id].left) + count_of(nodes_[id].right);
  }
  [[nodiscard]] static std::uint64_t priority_of(NodeId id);
  void rotate_up(NodeId id);  // one rotation moving `id` above its parent

  std::vector<Node> nodes_;
  std::vector<NodeId> free_;  // dead slot ids, reused LIFO
  NodeId root_ = kNull;
};

}  // namespace pss::util
