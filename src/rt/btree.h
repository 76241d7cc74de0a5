#pragma once

// In-memory B+ tree map.
//
// The paper's buffer tracker keeps its segment list "based on a B-Tree map
// using the start of each segment as the key" (Section 8.1).  This is that
// data structure: internal nodes route by key, all entries live in leaves,
// and leaves are linked for in-order traversal — exactly the access pattern
// the tracker needs (predecessor search, then a short ordered walk).

#include <array>
#include <memory>
#include <utility>

#include "support/error.h"

namespace polypart::rt {

template <typename Key, typename Value, int Order = 16>
class BTreeMap {
  static_assert(Order >= 4, "B-tree order must be at least 4");

  struct Node;
  struct Leaf;
  struct Inner;

 public:
  BTreeMap() = default;
  ~BTreeMap() { destroy(root_); }

  BTreeMap(const BTreeMap&) = delete;
  BTreeMap& operator=(const BTreeMap&) = delete;
  BTreeMap(BTreeMap&& o) noexcept { swap(o); }
  BTreeMap& operator=(BTreeMap&& o) noexcept {
    if (this != &o) {
      destroy(root_);
      root_ = nullptr;
      size_ = 0;
      swap(o);
    }
    return *this;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Position within the tree; iterates leaf-to-leaf in key order.
  class Iterator {
   public:
    Iterator() = default;
    bool atEnd() const { return leaf_ == nullptr; }
    const Key& key() const { return leaf_->keys[idx_]; }
    Value& value() { return leaf_->values[idx_]; }
    const Value& value() const { return leaf_->values[idx_]; }

    void next() {
      PP_ASSERT(leaf_);
      if (++idx_ >= leaf_->count) {
        leaf_ = leaf_->next;
        idx_ = 0;
      }
    }

    bool operator==(const Iterator&) const = default;

   private:
    friend class BTreeMap;
    Iterator(Leaf* leaf, int idx) : leaf_(leaf), idx_(idx) {}
    Leaf* leaf_ = nullptr;
    int idx_ = 0;
  };

  Iterator begin() const {
    Leaf* l = firstLeaf();
    return (l && l->count > 0) ? Iterator(l, 0) : Iterator();
  }
  Iterator end() const { return Iterator(); }

  /// First entry with key >= k.
  Iterator lowerBound(const Key& k) const {
    if (!root_) return end();
    Node* n = root_;
    while (!n->isLeaf) {
      Inner* in = static_cast<Inner*>(n);
      int i = 0;
      while (i < in->count && !(k < in->keys[i])) ++i;
      n = in->children[i];
    }
    Leaf* l = static_cast<Leaf*>(n);
    int i = 0;
    while (i < l->count && l->keys[i] < k) ++i;
    if (i == l->count) {
      l = l->next;
      i = 0;
      if (!l) return end();
    }
    return Iterator(l, i);
  }

  /// Last entry with key <= k, or end().
  Iterator floorEntry(const Key& k) const {
    Iterator it = lowerBound(k);
    if (!it.atEnd() && !(k < it.key())) return it;  // exact match
    return predecessor(it);
  }

  /// The entry just before `it` in key order (end() when none).
  Iterator predecessor(const Iterator& it) const {
    if (!root_) return end();
    if (it.atEnd()) {
      Leaf* l = lastLeaf();
      return (l && l->count > 0) ? Iterator(l, l->count - 1) : end();
    }
    if (it.idx_ > 0) return Iterator(it.leaf_, it.idx_ - 1);
    Leaf* prev = it.leaf_->prev;
    return prev ? Iterator(prev, prev->count - 1) : end();
  }

  Iterator find(const Key& k) const {
    Iterator it = lowerBound(k);
    if (!it.atEnd() && !(k < it.key())) return it;
    return end();
  }

  /// Inserts or overwrites.
  void insert(const Key& k, Value v) {
    if (!root_) {
      Leaf* l = new Leaf();
      l->keys[0] = k;
      l->values[0] = std::move(v);
      l->count = 1;
      root_ = l;
      size_ = 1;
      return;
    }
    SplitResult split = insertRec(root_, k, std::move(v));
    if (split.happened) {
      Inner* newRoot = new Inner();
      newRoot->keys[0] = split.separator;
      newRoot->children[0] = root_;
      newRoot->children[1] = split.right;
      newRoot->count = 1;
      root_ = newRoot;
    }
  }

  /// Removes the entry with key k; returns false when absent.
  bool erase(const Key& k) {
    if (!root_) return false;
    bool removed = eraseRec(root_, k);
    if (!removed) return false;
    --size_;
    // Shrink the root when it becomes trivial.
    if (!root_->isLeaf) {
      Inner* in = static_cast<Inner*>(root_);
      if (in->count == 0) {
        root_ = in->children[0];
        in->count = -1;  // prevent child destruction
        deleteInnerShallow(in);
      }
    } else if (static_cast<Leaf*>(root_)->count == 0) {
      delete static_cast<Leaf*>(root_);
      root_ = nullptr;
    }
    return true;
  }

  void clear() {
    destroy(root_);
    root_ = nullptr;
    size_ = 0;
  }

  /// Height of the tree (0 when empty); exercised by tests to check balance.
  int height() const {
    int h = 0;
    for (Node* n = root_; n; ++h) {
      if (n->isLeaf) break;
      n = static_cast<Inner*>(n)->children[0];
    }
    return root_ ? h + (root_->isLeaf ? 1 : 0) : 0;
  }

 private:
  struct Node {
    bool isLeaf;
    explicit Node(bool leaf) : isLeaf(leaf) {}
  };

  struct Leaf : Node {
    Leaf() : Node(true) {}
    std::array<Key, Order> keys;
    std::array<Value, Order> values;
    int count = 0;
    Leaf* next = nullptr;
    Leaf* prev = nullptr;
  };

  struct Inner : Node {
    Inner() : Node(false) {}
    std::array<Key, Order> keys;                  // count separators
    std::array<Node*, Order + 1> children{};      // count + 1 children
    int count = 0;
  };

  struct SplitResult {
    bool happened = false;
    Key separator{};
    Node* right = nullptr;
  };

  Node* root_ = nullptr;
  std::size_t size_ = 0;

  void swap(BTreeMap& o) {
    std::swap(root_, o.root_);
    std::swap(size_, o.size_);
  }

  Leaf* firstLeaf() const {
    Node* n = root_;
    if (!n) return nullptr;
    while (!n->isLeaf) n = static_cast<Inner*>(n)->children[0];
    return static_cast<Leaf*>(n);
  }

  Leaf* lastLeaf() const {
    Node* n = root_;
    if (!n) return nullptr;
    while (!n->isLeaf) {
      Inner* in = static_cast<Inner*>(n);
      n = in->children[in->count];
    }
    return static_cast<Leaf*>(n);
  }

  static void destroy(Node* n) {
    if (!n) return;
    if (n->isLeaf) {
      delete static_cast<Leaf*>(n);
      return;
    }
    Inner* in = static_cast<Inner*>(n);
    for (int i = 0; i <= in->count; ++i) destroy(in->children[i]);
    delete in;
  }

  static void deleteInnerShallow(Inner* in) {
    in->count = 0;
    in->children[0] = nullptr;
    delete in;
  }

  SplitResult insertRec(Node* n, const Key& k, Value v) {
    if (n->isLeaf) return insertLeaf(static_cast<Leaf*>(n), k, std::move(v));
    Inner* in = static_cast<Inner*>(n);
    int i = 0;
    while (i < in->count && !(k < in->keys[i])) ++i;
    SplitResult childSplit = insertRec(in->children[i], k, std::move(v));
    if (!childSplit.happened) return {};
    // Insert separator + right child at position i.
    if (in->count < Order) {
      for (int j = in->count; j > i; --j) {
        in->keys[j] = in->keys[j - 1];
        in->children[j + 1] = in->children[j];
      }
      in->keys[i] = childSplit.separator;
      in->children[i + 1] = childSplit.right;
      ++in->count;
      return {};
    }
    // Split the inner node.
    std::array<Key, Order + 1> keys;
    std::array<Node*, Order + 2> children;
    for (int j = 0; j < i; ++j) keys[j] = in->keys[j];
    keys[i] = childSplit.separator;
    for (int j = i; j < Order; ++j) keys[j + 1] = in->keys[j];
    for (int j = 0; j <= i; ++j) children[j] = in->children[j];
    children[i + 1] = childSplit.right;
    for (int j = i + 1; j <= Order; ++j) children[j + 1] = in->children[j];

    const int total = Order + 1;  // separators
    const int leftCount = total / 2;
    Key up = keys[leftCount];
    Inner* right = new Inner();
    right->count = total - leftCount - 1;
    for (int j = 0; j < right->count; ++j) right->keys[j] = keys[leftCount + 1 + j];
    for (int j = 0; j <= right->count; ++j)
      right->children[j] = children[leftCount + 1 + j];
    in->count = leftCount;
    for (int j = 0; j < leftCount; ++j) in->keys[j] = keys[j];
    for (int j = 0; j <= leftCount; ++j) in->children[j] = children[j];
    return {true, up, right};
  }

  SplitResult insertLeaf(Leaf* l, const Key& k, Value v) {
    int i = 0;
    while (i < l->count && l->keys[i] < k) ++i;
    if (i < l->count && !(k < l->keys[i])) {
      l->values[i] = std::move(v);  // overwrite
      return {};
    }
    ++size_;
    if (l->count < Order) {
      for (int j = l->count; j > i; --j) {
        l->keys[j] = l->keys[j - 1];
        l->values[j] = std::move(l->values[j - 1]);
      }
      l->keys[i] = k;
      l->values[i] = std::move(v);
      ++l->count;
      return {};
    }
    // Split the leaf.
    std::array<Key, Order + 1> keys;
    std::array<Value, Order + 1> values;
    for (int j = 0; j < i; ++j) {
      keys[j] = l->keys[j];
      values[j] = std::move(l->values[j]);
    }
    keys[i] = k;
    values[i] = std::move(v);
    for (int j = i; j < Order; ++j) {
      keys[j + 1] = l->keys[j];
      values[j + 1] = std::move(l->values[j]);
    }
    const int total = Order + 1;
    const int leftCount = total / 2;
    Leaf* right = new Leaf();
    right->count = total - leftCount;
    for (int j = 0; j < right->count; ++j) {
      right->keys[j] = keys[leftCount + j];
      right->values[j] = std::move(values[leftCount + j]);
    }
    l->count = leftCount;
    for (int j = 0; j < leftCount; ++j) {
      l->keys[j] = keys[j];
      l->values[j] = std::move(values[j]);
    }
    right->next = l->next;
    right->prev = l;
    if (l->next) l->next->prev = right;
    l->next = right;
    return {true, right->keys[0], right};
  }

  // Deletion: remove from the leaf; rebalance by borrowing from or merging
  // with a sibling when a node underflows (< Order/2 entries).
  bool eraseRec(Node* n, const Key& k) {
    if (n->isLeaf) {
      Leaf* l = static_cast<Leaf*>(n);
      int i = 0;
      while (i < l->count && l->keys[i] < k) ++i;
      if (i == l->count || k < l->keys[i]) return false;
      for (int j = i; j + 1 < l->count; ++j) {
        l->keys[j] = l->keys[j + 1];
        l->values[j] = std::move(l->values[j + 1]);
      }
      --l->count;
      return true;
    }
    Inner* in = static_cast<Inner*>(n);
    int i = 0;
    while (i < in->count && !(k < in->keys[i])) ++i;
    if (!eraseRec(in->children[i], k)) return false;
    rebalanceChild(in, i);
    return true;
  }

  void rebalanceChild(Inner* parent, int i) {
    Node* child = parent->children[i];
    const int minEntries = Order / 2;
    int childCount = child->isLeaf ? static_cast<Leaf*>(child)->count
                                   : static_cast<Inner*>(child)->count;
    if (childCount >= minEntries) return;

    Node* left = i > 0 ? parent->children[i - 1] : nullptr;
    Node* right = i < parent->count ? parent->children[i + 1] : nullptr;

    auto countOf = [](Node* n) {
      return n->isLeaf ? static_cast<Leaf*>(n)->count : static_cast<Inner*>(n)->count;
    };

    if (left && countOf(left) > minEntries) {
      borrowFromLeft(parent, i);
    } else if (right && countOf(right) > minEntries) {
      borrowFromRight(parent, i);
    } else if (left) {
      mergeChildren(parent, i - 1);
    } else if (right) {
      mergeChildren(parent, i);
    }
  }

  void borrowFromLeft(Inner* parent, int i) {
    Node* ln = parent->children[i - 1];
    Node* rn = parent->children[i];
    if (ln->isLeaf) {
      Leaf* l = static_cast<Leaf*>(ln);
      Leaf* r = static_cast<Leaf*>(rn);
      for (int j = r->count; j > 0; --j) {
        r->keys[j] = r->keys[j - 1];
        r->values[j] = std::move(r->values[j - 1]);
      }
      r->keys[0] = l->keys[l->count - 1];
      r->values[0] = std::move(l->values[l->count - 1]);
      ++r->count;
      --l->count;
      parent->keys[i - 1] = r->keys[0];
    } else {
      Inner* l = static_cast<Inner*>(ln);
      Inner* r = static_cast<Inner*>(rn);
      for (int j = r->count; j > 0; --j) r->keys[j] = r->keys[j - 1];
      for (int j = r->count + 1; j > 0; --j) r->children[j] = r->children[j - 1];
      r->keys[0] = parent->keys[i - 1];
      r->children[0] = l->children[l->count];
      ++r->count;
      parent->keys[i - 1] = l->keys[l->count - 1];
      --l->count;
    }
  }

  void borrowFromRight(Inner* parent, int i) {
    Node* ln = parent->children[i];
    Node* rn = parent->children[i + 1];
    if (ln->isLeaf) {
      Leaf* l = static_cast<Leaf*>(ln);
      Leaf* r = static_cast<Leaf*>(rn);
      l->keys[l->count] = r->keys[0];
      l->values[l->count] = std::move(r->values[0]);
      ++l->count;
      for (int j = 0; j + 1 < r->count; ++j) {
        r->keys[j] = r->keys[j + 1];
        r->values[j] = std::move(r->values[j + 1]);
      }
      --r->count;
      parent->keys[i] = r->keys[0];
    } else {
      Inner* l = static_cast<Inner*>(ln);
      Inner* r = static_cast<Inner*>(rn);
      l->keys[l->count] = parent->keys[i];
      l->children[l->count + 1] = r->children[0];
      ++l->count;
      parent->keys[i] = r->keys[0];
      for (int j = 0; j + 1 < r->count; ++j) r->keys[j] = r->keys[j + 1];
      for (int j = 0; j < r->count; ++j) r->children[j] = r->children[j + 1];
      --r->count;
    }
  }

  /// Merges children i and i+1 into child i and drops separator i.
  void mergeChildren(Inner* parent, int i) {
    Node* ln = parent->children[i];
    Node* rn = parent->children[i + 1];
    if (ln->isLeaf) {
      Leaf* l = static_cast<Leaf*>(ln);
      Leaf* r = static_cast<Leaf*>(rn);
      for (int j = 0; j < r->count; ++j) {
        l->keys[l->count + j] = r->keys[j];
        l->values[l->count + j] = std::move(r->values[j]);
      }
      l->count += r->count;
      l->next = r->next;
      if (r->next) r->next->prev = l;
      delete r;
    } else {
      Inner* l = static_cast<Inner*>(ln);
      Inner* r = static_cast<Inner*>(rn);
      l->keys[l->count] = parent->keys[i];
      for (int j = 0; j < r->count; ++j) l->keys[l->count + 1 + j] = r->keys[j];
      for (int j = 0; j <= r->count; ++j)
        l->children[l->count + 1 + j] = r->children[j];
      l->count += r->count + 1;
      r->count = -1;
      deleteInnerShallow(r);
    }
    for (int j = i; j + 1 < parent->count; ++j) parent->keys[j] = parent->keys[j + 1];
    for (int j = i + 1; j < parent->count; ++j)
      parent->children[j] = parent->children[j + 1];
    --parent->count;
  }
};

}  // namespace polypart::rt
