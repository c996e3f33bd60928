#include "util/order_index.hpp"

#include "util/assert.hpp"
#include "util/math.hpp"

namespace pss::util {

std::uint64_t OrderIndex::priority_of(NodeId id) {
  // Deterministic, well-mixed heap priorities from the dense node ids, so
  // the treap is balanced in expectation and the shape is reproducible
  // run to run.
  return splitmix64(id);
}

void OrderIndex::rotate_up(NodeId id) {
  const NodeId p = nodes_[id].parent;
  const NodeId g = nodes_[p].parent;
  if (nodes_[p].left == id) {
    // Right rotation: id's right subtree becomes p's left subtree.
    nodes_[p].left = nodes_[id].right;
    if (nodes_[id].right != kNull) nodes_[nodes_[id].right].parent = p;
    nodes_[id].right = p;
  } else {
    // Left rotation, mirrored.
    nodes_[p].right = nodes_[id].left;
    if (nodes_[id].left != kNull) nodes_[nodes_[id].left].parent = p;
    nodes_[id].left = p;
  }
  nodes_[p].parent = id;
  nodes_[id].parent = g;
  if (g == kNull)
    root_ = id;
  else if (nodes_[g].left == p)
    nodes_[g].left = id;
  else
    nodes_[g].right = id;
  pull_count(p);
  pull_count(id);
}

OrderIndex::NodeId OrderIndex::insert(double key) {
  PSS_REQUIRE(nodes_.size() < std::size_t(kNull), "order index full");
  // A freed slot is recycled only after the descent succeeds, so a thrown
  // PSS_REQUIRE leaves both the tree and the free list untouched.
  const NodeId id =
      free_.empty() ? NodeId(nodes_.size()) : free_.back();
  Node node;
  node.key = key;
  if (root_ == kNull) {
    if (free_.empty())
      nodes_.push_back(node);
    else {
      free_.pop_back();
      nodes_[id] = node;
    }
    root_ = id;
    return id;
  }
  // Standard BST descent. Counts are bumped only after the whole path has
  // passed the duplicate check, so a thrown PSS_REQUIRE leaves the index
  // untouched and usable.
  NodeId cur = root_;
  while (true) {
    PSS_REQUIRE(key != nodes_[cur].key, "key already present");
    NodeId& child = key < nodes_[cur].key ? nodes_[cur].left
                                          : nodes_[cur].right;
    if (child == kNull) {
      child = id;
      node.parent = cur;
      if (free_.empty())
        nodes_.push_back(node);
      else {
        free_.pop_back();
        nodes_[id] = node;
      }
      break;
    }
    cur = child;
  }
  for (NodeId p = cur; p != kNull; p = nodes_[p].parent) ++nodes_[p].count;
  // Restore the max-heap priority invariant by rotating the new node up.
  const std::uint64_t prio = priority_of(id);
  while (nodes_[id].parent != kNull &&
         priority_of(nodes_[id].parent) < prio)
    rotate_up(id);
  return id;
}

void OrderIndex::erase(NodeId id) {
  PSS_REQUIRE(is_live(id), "erase of a dead or out-of-range node");
  // Rotate the node down to a leaf, always promoting the higher-priority
  // child so the heap invariant holds everywhere else, then detach it.
  while (nodes_[id].left != kNull || nodes_[id].right != kNull) {
    const NodeId l = nodes_[id].left;
    const NodeId r = nodes_[id].right;
    NodeId child;
    if (l == kNull)
      child = r;
    else if (r == kNull)
      child = l;
    else
      child = priority_of(l) > priority_of(r) ? l : r;
    rotate_up(child);
  }
  const NodeId p = nodes_[id].parent;
  if (p == kNull) {
    root_ = kNull;
  } else {
    if (nodes_[p].left == id)
      nodes_[p].left = kNull;
    else
      nodes_[p].right = kNull;
  }
  for (NodeId a = p; a != kNull; a = nodes_[a].parent) --nodes_[a].count;
  nodes_[id] = Node{};
  nodes_[id].count = 0;  // dead slot: is_live(id) is now false
  free_.push_back(id);
}

OrderIndex::NodeId OrderIndex::find(double key) const {
  NodeId cur = root_;
  while (cur != kNull) {
    if (key == nodes_[cur].key) return cur;
    cur = key < nodes_[cur].key ? nodes_[cur].left : nodes_[cur].right;
  }
  return kNull;
}

OrderIndex::NodeId OrderIndex::last_leq(double key) const {
  NodeId cur = root_;
  NodeId best = kNull;
  while (cur != kNull) {
    if (nodes_[cur].key <= key) {
      best = cur;
      cur = nodes_[cur].right;
    } else {
      cur = nodes_[cur].left;
    }
  }
  return best;
}

OrderIndex::NodeId OrderIndex::select(std::size_t pos) const {
  PSS_REQUIRE(pos < size(), "order-index position out of range");
  NodeId cur = root_;
  while (true) {
    const std::size_t left = count_of(nodes_[cur].left);
    if (pos < left) {
      cur = nodes_[cur].left;
    } else if (pos == left) {
      return cur;
    } else {
      pos -= left + 1;
      cur = nodes_[cur].right;
    }
  }
}

std::size_t OrderIndex::rank(NodeId id) const {
  std::size_t r = count_of(nodes_[id].left);
  NodeId cur = id;
  while (nodes_[cur].parent != kNull) {
    const NodeId p = nodes_[cur].parent;
    if (nodes_[p].right == cur) r += count_of(nodes_[p].left) + 1;
    cur = p;
  }
  return r;
}

OrderIndex::NodeId OrderIndex::front() const {
  if (root_ == kNull) return kNull;
  NodeId cur = root_;
  while (nodes_[cur].left != kNull) cur = nodes_[cur].left;
  return cur;
}

OrderIndex::NodeId OrderIndex::back() const {
  if (root_ == kNull) return kNull;
  NodeId cur = root_;
  while (nodes_[cur].right != kNull) cur = nodes_[cur].right;
  return cur;
}

}  // namespace pss::util
