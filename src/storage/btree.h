// In-memory B+tree: ordered index with range scans, used by the TPC-C engine
// (orders, order lines, customer name index). Classic copy-up leaf splits,
// borrow/merge rebalancing on erase, linked leaves for iteration. Node visits
// are reported to the WorkMeter so index depth shows up in simulated cost.
#ifndef PARTDB_STORAGE_BTREE_H_
#define PARTDB_STORAGE_BTREE_H_

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/logging.h"
#include "engine/work_meter.h"

namespace partdb {

/// B+tree mapping K -> V. K needs operator< and operator==; duplicates are
/// rejected by Insert. kCap is the max keys per node (even, >= 6).
template <typename K, typename V, int kCap = 16>
class BPlusTree {
  static_assert(kCap >= 6 && kCap % 2 == 0, "kCap must be even and >= 6");
  static constexpr int kMin = kCap / 2 - 1;  // underflow threshold (non-root)

  struct Node {
    bool leaf;
    int n = 0;
    K keys[kCap];
    explicit Node(bool is_leaf) : leaf(is_leaf) {}
  };
  struct LeafNode : Node {
    V vals[kCap];
    LeafNode* next = nullptr;
    LeafNode* prev = nullptr;
    LeafNode() : Node(true) {}
  };
  struct InternalNode : Node {
    Node* child[kCap + 1] = {nullptr};
    InternalNode() : Node(false) {}
  };

 public:
  BPlusTree() { root_ = new LeafNode(); }
  ~BPlusTree() { FreeRec(root_); }
  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Removes every entry (checkpoint restore rebuilds from scratch).
  void Clear() {
    FreeRec(root_);
    root_ = new LeafNode();
    size_ = 0;
  }

  /// Forward iterator over (key, value) pairs in key order.
  class Iterator {
   public:
    Iterator() : leaf_(nullptr), idx_(0) {}
    Iterator(LeafNode* leaf, int idx) : leaf_(leaf), idx_(idx) {}
    bool Valid() const { return leaf_ != nullptr && idx_ < leaf_->n; }
    const K& key() const { return leaf_->keys[idx_]; }
    V& value() const { return leaf_->vals[idx_]; }
    void Next() {
      PARTDB_DCHECK(Valid());
      ++idx_;
      if (idx_ >= leaf_->n) {
        leaf_ = leaf_->next;
        idx_ = 0;
      }
    }
    bool operator==(const Iterator& o) const { return leaf_ == o.leaf_ && idx_ == o.idx_; }

   private:
    LeafNode* leaf_;
    int idx_;
  };

  /// Returns the value for `key`, or nullptr.
  V* Find(const K& key, WorkMeter* m = nullptr) {
    Node* node = root_;
    Visit(m);
    while (!node->leaf) {
      node = Route(static_cast<InternalNode*>(node), key);
      Visit(m);
    }
    auto* leaf = static_cast<LeafNode*>(node);
    const int i = LowerBoundIdx(leaf, key);
    if (i < leaf->n && leaf->keys[i] == key) return &leaf->vals[i];
    return nullptr;
  }
  const V* Find(const K& key, WorkMeter* m = nullptr) const {
    return const_cast<BPlusTree*>(this)->Find(key, m);
  }

  /// First entry with key >= `key` (end iterator if none).
  Iterator LowerBound(const K& key, WorkMeter* m = nullptr) {
    Node* node = root_;
    Visit(m);
    while (!node->leaf) {
      node = Route(static_cast<InternalNode*>(node), key);
      Visit(m);
    }
    auto* leaf = static_cast<LeafNode*>(node);
    const int i = LowerBoundIdx(leaf, key);
    if (i >= leaf->n) return Iterator(leaf->next, 0);
    return Iterator(leaf, i);
  }

  Iterator Begin() {
    Node* node = root_;
    while (!node->leaf) node = static_cast<InternalNode*>(node)->child[0];
    auto* leaf = static_cast<LeafNode*>(node);
    if (leaf->n == 0) return Iterator();
    return Iterator(leaf, 0);
  }

  /// Last entry (invalid iterator if empty).
  Iterator Last() {
    Node* node = root_;
    while (!node->leaf) {
      auto* in = static_cast<InternalNode*>(node);
      node = in->child[in->n];
    }
    auto* leaf = static_cast<LeafNode*>(node);
    if (leaf->n == 0) return Iterator();
    return Iterator(leaf, leaf->n - 1);
  }

  /// Inserts (key, value). Returns false if the key already exists.
  bool Insert(const K& key, V value, WorkMeter* m = nullptr) {
    SplitResult split;
    bool inserted = InsertRec(root_, key, std::move(value), &split, m);
    if (!inserted) return false;
    if (split.right != nullptr) {
      auto* new_root = new InternalNode();
      new_root->n = 1;
      new_root->keys[0] = split.sep;
      new_root->child[0] = root_;
      new_root->child[1] = split.right;
      root_ = new_root;
    }
    ++size_;
    return true;
  }

  /// Removes `key`. Returns true if it was present.
  bool Erase(const K& key, WorkMeter* m = nullptr) {
    const bool erased = EraseRec(root_, key, m);
    if (!erased) return false;
    if (!root_->leaf && root_->n == 0) {
      Node* old = root_;
      root_ = static_cast<InternalNode*>(old)->child[0];
      delete static_cast<InternalNode*>(old);
    }
    --size_;
    return true;
  }

  /// Structural invariant check for tests: ordering, occupancy, uniform
  /// depth, separator bounds, leaf chain, and size. Returns true if valid.
  bool Validate() const {
    int depth = -1;
    size_t counted = 0;
    bool ok = ValidateRec(root_, nullptr, nullptr, 0, &depth, &counted);
    ok = ok && counted == size_;
    // Leaf chain must enumerate exactly `size_` keys in strict order.
    const Node* node = root_;
    while (!node->leaf) node = static_cast<const InternalNode*>(node)->child[0];
    const auto* leaf = static_cast<const LeafNode*>(node);
    size_t chain = 0;
    const K* prev = nullptr;
    const LeafNode* prev_leaf = nullptr;
    while (leaf != nullptr) {
      if (leaf->prev != prev_leaf) return false;
      for (int i = 0; i < leaf->n; ++i) {
        if (prev != nullptr && !(*prev < leaf->keys[i])) return false;
        prev = &leaf->keys[i];
        ++chain;
      }
      prev_leaf = leaf;
      leaf = leaf->next;
    }
    return ok && chain == size_;
  }

 private:
  struct SplitResult {
    K sep{};
    Node* right = nullptr;
  };

  static void Visit(WorkMeter* m) {
    if (m != nullptr) m->index_nodes++;
  }

  static int LowerBoundIdx(const Node* node, const K& key) {
    int lo = 0, hi = node->n;
    while (lo < hi) {
      const int mid = (lo + hi) / 2;
      if (node->keys[mid] < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  static Node* Route(InternalNode* node, const K& key) {
    // child[i] holds keys < keys[i]; separators route equal keys right.
    int lo = 0, hi = node->n;
    while (lo < hi) {
      const int mid = (lo + hi) / 2;
      if (key < node->keys[mid]) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return node->child[lo];
  }

  bool InsertRec(Node* node, const K& key, V&& value, SplitResult* split, WorkMeter* m) {
    Visit(m);
    if (node->leaf) {
      auto* leaf = static_cast<LeafNode*>(node);
      const int pos = LowerBoundIdx(leaf, key);
      if (pos < leaf->n && leaf->keys[pos] == key) return false;
      for (int i = leaf->n; i > pos; --i) {
        leaf->keys[i] = std::move(leaf->keys[i - 1]);
        leaf->vals[i] = std::move(leaf->vals[i - 1]);
      }
      leaf->keys[pos] = key;
      leaf->vals[pos] = std::move(value);
      leaf->n++;
      if (leaf->n == kCap) SplitLeaf(leaf, split);
      return true;
    }
    auto* in = static_cast<InternalNode*>(node);
    int idx = 0;
    {
      int lo = 0, hi = in->n;
      while (lo < hi) {
        const int mid = (lo + hi) / 2;
        if (key < in->keys[mid]) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      idx = lo;
    }
    SplitResult child_split;
    if (!InsertRec(in->child[idx], key, std::move(value), &child_split, m)) return false;
    if (child_split.right != nullptr) {
      for (int i = in->n; i > idx; --i) {
        in->keys[i] = std::move(in->keys[i - 1]);
        in->child[i + 1] = in->child[i];
      }
      in->keys[idx] = child_split.sep;
      in->child[idx + 1] = child_split.right;
      in->n++;
      if (in->n == kCap) SplitInternal(in, split);
    }
    return true;
  }

  static void SplitLeaf(LeafNode* leaf, SplitResult* split) {
    auto* right = new LeafNode();
    const int half = kCap / 2;
    right->n = leaf->n - half;
    for (int i = 0; i < right->n; ++i) {
      right->keys[i] = std::move(leaf->keys[half + i]);
      right->vals[i] = std::move(leaf->vals[half + i]);
    }
    leaf->n = half;
    right->next = leaf->next;
    right->prev = leaf;
    if (right->next != nullptr) right->next->prev = right;
    leaf->next = right;
    split->sep = right->keys[0];
    split->right = right;
  }

  static void SplitInternal(InternalNode* in, SplitResult* split) {
    auto* right = new InternalNode();
    const int mid = kCap / 2;
    split->sep = std::move(in->keys[mid]);
    right->n = in->n - mid - 1;
    for (int i = 0; i < right->n; ++i) {
      right->keys[i] = std::move(in->keys[mid + 1 + i]);
      right->child[i] = in->child[mid + 1 + i];
    }
    right->child[right->n] = in->child[in->n];
    in->n = mid;
    split->right = right;
  }

  bool EraseRec(Node* node, const K& key, WorkMeter* m) {
    Visit(m);
    if (node->leaf) {
      auto* leaf = static_cast<LeafNode*>(node);
      const int pos = LowerBoundIdx(leaf, key);
      if (pos >= leaf->n || !(leaf->keys[pos] == key)) return false;
      for (int i = pos; i + 1 < leaf->n; ++i) {
        leaf->keys[i] = std::move(leaf->keys[i + 1]);
        leaf->vals[i] = std::move(leaf->vals[i + 1]);
      }
      leaf->n--;
      return true;
    }
    auto* in = static_cast<InternalNode*>(node);
    int idx = 0;
    {
      int lo = 0, hi = in->n;
      while (lo < hi) {
        const int mid = (lo + hi) / 2;
        if (key < in->keys[mid]) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      idx = lo;
    }
    if (!EraseRec(in->child[idx], key, m)) return false;
    if (in->child[idx]->n < kMin) FixUnderflow(in, idx);
    return true;
  }

  void FixUnderflow(InternalNode* parent, int idx) {
    Node* node = parent->child[idx];
    Node* left = idx > 0 ? parent->child[idx - 1] : nullptr;
    Node* right = idx < parent->n ? parent->child[idx + 1] : nullptr;

    if (left != nullptr && left->n > kMin) {
      BorrowFromLeft(parent, idx, left, node);
    } else if (right != nullptr && right->n > kMin) {
      BorrowFromRight(parent, idx, node, right);
    } else if (left != nullptr) {
      MergeChildren(parent, idx - 1);
    } else {
      PARTDB_DCHECK(right != nullptr);
      MergeChildren(parent, idx);
    }
  }

  static void BorrowFromLeft(InternalNode* parent, int idx, Node* left, Node* node) {
    if (node->leaf) {
      auto* l = static_cast<LeafNode*>(left);
      auto* c = static_cast<LeafNode*>(node);
      for (int i = c->n; i > 0; --i) {
        c->keys[i] = std::move(c->keys[i - 1]);
        c->vals[i] = std::move(c->vals[i - 1]);
      }
      c->keys[0] = std::move(l->keys[l->n - 1]);
      c->vals[0] = std::move(l->vals[l->n - 1]);
      c->n++;
      l->n--;
      parent->keys[idx - 1] = c->keys[0];
    } else {
      auto* l = static_cast<InternalNode*>(left);
      auto* c = static_cast<InternalNode*>(node);
      for (int i = c->n; i > 0; --i) c->keys[i] = std::move(c->keys[i - 1]);
      for (int i = c->n + 1; i > 0; --i) c->child[i] = c->child[i - 1];
      c->keys[0] = std::move(parent->keys[idx - 1]);
      c->child[0] = l->child[l->n];
      c->n++;
      parent->keys[idx - 1] = std::move(l->keys[l->n - 1]);
      l->n--;
    }
  }

  static void BorrowFromRight(InternalNode* parent, int idx, Node* node, Node* right) {
    if (node->leaf) {
      auto* c = static_cast<LeafNode*>(node);
      auto* r = static_cast<LeafNode*>(right);
      c->keys[c->n] = std::move(r->keys[0]);
      c->vals[c->n] = std::move(r->vals[0]);
      c->n++;
      for (int i = 0; i + 1 < r->n; ++i) {
        r->keys[i] = std::move(r->keys[i + 1]);
        r->vals[i] = std::move(r->vals[i + 1]);
      }
      r->n--;
      parent->keys[idx] = r->keys[0];
    } else {
      auto* c = static_cast<InternalNode*>(node);
      auto* r = static_cast<InternalNode*>(right);
      c->keys[c->n] = std::move(parent->keys[idx]);
      c->child[c->n + 1] = r->child[0];
      c->n++;
      parent->keys[idx] = std::move(r->keys[0]);
      for (int i = 0; i + 1 < r->n; ++i) r->keys[i] = std::move(r->keys[i + 1]);
      for (int i = 0; i < r->n; ++i) r->child[i] = r->child[i + 1];
      r->n--;
    }
  }

  /// Merges child[idx+1] into child[idx] and removes separator idx.
  void MergeChildren(InternalNode* parent, int idx) {
    Node* ln = parent->child[idx];
    Node* rn = parent->child[idx + 1];
    if (ln->leaf) {
      auto* l = static_cast<LeafNode*>(ln);
      auto* r = static_cast<LeafNode*>(rn);
      for (int i = 0; i < r->n; ++i) {
        l->keys[l->n + i] = std::move(r->keys[i]);
        l->vals[l->n + i] = std::move(r->vals[i]);
      }
      l->n += r->n;
      l->next = r->next;
      if (l->next != nullptr) l->next->prev = l;
      delete r;
    } else {
      auto* l = static_cast<InternalNode*>(ln);
      auto* r = static_cast<InternalNode*>(rn);
      l->keys[l->n] = std::move(parent->keys[idx]);
      for (int i = 0; i < r->n; ++i) l->keys[l->n + 1 + i] = std::move(r->keys[i]);
      for (int i = 0; i <= r->n; ++i) l->child[l->n + 1 + i] = r->child[i];
      l->n += r->n + 1;
      delete r;
    }
    for (int i = idx; i + 1 < parent->n; ++i) {
      parent->keys[i] = std::move(parent->keys[i + 1]);
      parent->child[i + 1] = parent->child[i + 2];
    }
    parent->n--;
  }

  void FreeRec(Node* node) {
    if (!node->leaf) {
      auto* in = static_cast<InternalNode*>(node);
      for (int i = 0; i <= in->n; ++i) FreeRec(in->child[i]);
      delete in;
    } else {
      delete static_cast<LeafNode*>(node);
    }
  }

  bool ValidateRec(const Node* node, const K* lo, const K* hi, int depth, int* leaf_depth,
                   size_t* counted) const {
    // Keys strictly increasing and within (lo, hi].
    for (int i = 0; i < node->n; ++i) {
      if (i > 0 && !(node->keys[i - 1] < node->keys[i])) return false;
      if (lo != nullptr && node->keys[i] < *lo) return false;
      if (hi != nullptr && !(node->keys[i] < *hi)) return false;
    }
    if (node != root_ && node->n < kMin) return false;
    if (node->leaf) {
      if (*leaf_depth == -1) *leaf_depth = depth;
      if (*leaf_depth != depth) return false;
      *counted += node->n;
      return true;
    }
    const auto* in = static_cast<const InternalNode*>(node);
    if (in->n == 0) return false;
    for (int i = 0; i <= in->n; ++i) {
      const K* clo = i == 0 ? lo : &in->keys[i - 1];
      const K* chi = i == in->n ? hi : &in->keys[i];
      if (!ValidateRec(in->child[i], clo, chi, depth + 1, leaf_depth, counted)) return false;
    }
    return true;
  }

  Node* root_;
  size_t size_ = 0;
};

}  // namespace partdb

#endif  // PARTDB_STORAGE_BTREE_H_
