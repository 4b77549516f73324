#include "src/storage/btree.h"

#include <cassert>

#include "src/stats/counters.h"
#include "src/stats/profiler.h"
#include "src/util/epoch.h"
#include "src/util/latch.h"

namespace slidb {

// Entries are totally ordered by the (key, value) pair, which makes
// duplicate keys unambiguous: every entry has exactly one location.
//
// Fields below the latch are relaxed atomics: optimistic readers race with
// writers by design (the OptLatch version check discards any torn read),
// and relaxed atomic accesses make that protocol defined behaviour instead
// of a data race — on x86 they compile to plain loads and stores. Two
// discipline rules keep racy values harmless: a pointer read optimistically
// is dereferenced only after the node it was read from validates, and
// values (keys, counts) are acted on only after validation.
struct BTree::Node {
  OptLatch version;  // version-validated access
  const bool leaf;
  std::atomic<uint16_t> count{0};
  std::atomic<uint64_t> keys[kFanout];
  std::atomic<uint64_t> vals[kFanout];     // leaf: values; internal: tie-break
  std::atomic<Node*> children[kFanout + 1];  // internal only
  std::atomic<Node*> next{nullptr};          // leaf chain

  explicit Node(bool is_leaf) : leaf(is_leaf) {
    for (auto& k : keys) k.store(0, std::memory_order_relaxed);
    for (auto& v : vals) v.store(0, std::memory_order_relaxed);
    for (auto& c : children) c.store(nullptr, std::memory_order_relaxed);
  }
};

namespace {

inline uint64_t Ld(const std::atomic<uint64_t>& a) {
  return a.load(std::memory_order_relaxed);
}
inline uint16_t Ld16(const std::atomic<uint16_t>& a) {
  return a.load(std::memory_order_relaxed);
}
inline BTree::Node* LdP(const std::atomic<BTree::Node*>& a) {
  return a.load(std::memory_order_relaxed);
}
inline void St(std::atomic<uint64_t>& a, uint64_t v) {
  a.store(v, std::memory_order_relaxed);
}
inline void St16(std::atomic<uint16_t>& a, uint16_t v) {
  a.store(v, std::memory_order_relaxed);
}
inline void StP(std::atomic<BTree::Node*>& a, BTree::Node* v) {
  a.store(v, std::memory_order_relaxed);
}

inline bool PairLess(uint64_t k1, uint64_t v1, uint64_t k2, uint64_t v2) {
  return k1 < k2 || (k1 == k2 && v1 < v2);
}

void FreeNodeDeleter(void* p) { delete static_cast<BTree::Node*>(p); }

/// Bounded exponential backoff between optimistic restarts: a failed
/// validation means a writer owns (or just finished with) the path, so
/// pausing before re-traversal prevents restart storms; under heavy
/// oversubscription we eventually yield so the writer can run at all.
class RestartBackoff {
 public:
  void Pause() {
    CountEvent(Counter::kBtreeRestarts);
    const int spins = 1 << (attempts_ < 6 ? attempts_ : 6);
    for (int i = 0; i < spins; ++i) latch_internal::CpuRelax();
    if (++attempts_ >= kYieldAfter) latch_internal::OsYield();
  }

 private:
  static constexpr int kYieldAfter = 8;
  int attempts_ = 0;
};

}  // namespace

/// First index with (keys[i], vals[i]) >= (k, v). Safe on racy snapshots:
/// any count value ever stored is <= kFanout, so reads stay in bounds and
/// a torn result is discarded by the caller's version check.
static int LowerBound(const BTree::Node* n, uint64_t k, uint64_t v) {
  int lo = 0, hi = Ld16(n->count);
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    if (PairLess(Ld(n->keys[mid]), Ld(n->vals[mid]), k, v)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// First index with (keys[i], vals[i]) > (k, v).
static int UpperBound(const BTree::Node* n, uint64_t k, uint64_t v) {
  int lo = 0, hi = Ld16(n->count);
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    if (PairLess(k, v, Ld(n->keys[mid]), Ld(n->vals[mid]))) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

BTree::BTree() : root_(new Node(/*is_leaf=*/true)) {}

BTree::~BTree() {
  FreeTree(root_.load(std::memory_order_acquire));
  // Leaves retired by Remove are no longer reachable from the root (the
  // epoch manager owns them); nudge the shared domain so long-lived
  // processes that churn trees do not accumulate pending retirees.
  EpochManager::Global().ReclaimSome();
}

void BTree::FreeTree(Node* n) {
  if (!n->leaf) {
    for (int i = 0; i <= Ld16(n->count); ++i) FreeTree(LdP(n->children[i]));
  }
  delete n;
}

// ---- shared structural helpers (caller holds exclusive access) ----

namespace {

/// Insert into a non-full leaf at the sorted position. Returns false if the
/// exact (k, v) pair already exists.
bool LeafInsert(BTree::Node* leaf, uint64_t k, uint64_t v) {
  const int idx = LowerBound(leaf, k, v);
  const int count = Ld16(leaf->count);
  if (idx < count && Ld(leaf->keys[idx]) == k && Ld(leaf->vals[idx]) == v) {
    return false;
  }
  for (int i = count; i > idx; --i) {
    St(leaf->keys[i], Ld(leaf->keys[i - 1]));
    St(leaf->vals[i], Ld(leaf->vals[i - 1]));
  }
  St(leaf->keys[idx], k);
  St(leaf->vals[idx], v);
  St16(leaf->count, static_cast<uint16_t>(count + 1));
  return true;
}

/// Split a full child (exclusively held) under its exclusively held,
/// non-full parent. After the call, `child` holds the lower half and the
/// new right sibling (fresh — not yet visible to anyone else) holds the
/// upper half. Optimistic readers mid-node see torn state and restart via
/// the version bump the caller performs on unlock.
void SplitChild(BTree::Node* parent, int child_slot, BTree::Node* child) {
  auto* right = new BTree::Node(child->leaf);
  const int child_count = Ld16(child->count);
  const int mid = child_count / 2;

  if (child->leaf) {
    // Copy upper half; the separator (first right pair) is copied up.
    const int rcount = child_count - mid;
    for (int i = 0; i < rcount; ++i) {
      St(right->keys[i], Ld(child->keys[mid + i]));
      St(right->vals[i], Ld(child->vals[mid + i]));
    }
    St16(right->count, static_cast<uint16_t>(rcount));
    St16(child->count, static_cast<uint16_t>(mid));
    StP(right->next, LdP(child->next));
    StP(child->next, right);
  } else {
    // Move upper separators/children; the middle separator moves up.
    const int rcount = child_count - mid - 1;
    for (int i = 0; i < rcount; ++i) {
      St(right->keys[i], Ld(child->keys[mid + 1 + i]));
      St(right->vals[i], Ld(child->vals[mid + 1 + i]));
    }
    for (int i = 0; i <= rcount; ++i) {
      StP(right->children[i], LdP(child->children[mid + 1 + i]));
    }
    St16(right->count, static_cast<uint16_t>(rcount));
    St16(child->count, static_cast<uint16_t>(mid));
  }

  // Insert separator + right child into the parent at child_slot.
  const uint64_t sep_k =
      child->leaf ? Ld(right->keys[0]) : Ld(child->keys[mid]);
  const uint64_t sep_v =
      child->leaf ? Ld(right->vals[0]) : Ld(child->vals[mid]);
  const int parent_count = Ld16(parent->count);
  for (int i = parent_count; i > child_slot; --i) {
    St(parent->keys[i], Ld(parent->keys[i - 1]));
    St(parent->vals[i], Ld(parent->vals[i - 1]));
    StP(parent->children[i + 1], LdP(parent->children[i]));
  }
  St(parent->keys[child_slot], sep_k);
  St(parent->vals[child_slot], sep_v);
  StP(parent->children[child_slot + 1], right);
  St16(parent->count, static_cast<uint16_t>(parent_count + 1));
}

}  // namespace

// ---- optimistic lock coupling ----
//
// Protocol (see DESIGN.md "Optimistic lock coupling"): traversals carry
// (node, version) pairs; a child pointer read from a node is dereferenced
// only after that node re-validates; writers upgrade exactly the nodes
// they mutate. Any validation failure unwinds to the restart label after a
// bounded backoff. Full nodes are split eagerly on the way down, so a
// parent is never full when its child needs a separator.

bool BTree::SplitNodeOrRestart(Node* parent, uint64_t pv, Node* node,
                               uint64_t v, uint64_t key, uint64_t value) {
  bool rs = false;
  if (parent != nullptr) {
    parent->version.UpgradeToWriteLockOrRestart(pv, &rs);
    if (rs) return false;
  }
  node->version.UpgradeToWriteLockOrRestart(v, &rs);
  if (rs) {
    if (parent != nullptr) parent->version.WriteUnlock();
    return false;
  }
  if (parent == nullptr) {
    // Splitting the root: it must still *be* the root (both upgrades
    // validated, but the root pointer itself is not version-guarded).
    if (node != root_.load(std::memory_order_acquire)) {
      node->version.WriteUnlock();
      return false;
    }
    auto* new_root = new Node(/*is_leaf=*/false);
    StP(new_root->children[0], node);
    SplitChild(new_root, 0, node);
    root_.store(new_root, std::memory_order_release);
    node->version.WriteUnlock();
  } else {
    const int slot = UpperBound(parent, key, value);
    assert(LdP(parent->children[slot]) == node);
    SplitChild(parent, slot, node);
    node->version.WriteUnlock();
    parent->version.WriteUnlock();
  }
  return true;
}

Status BTree::Insert(uint64_t key, uint64_t value) {
  ScopedComponent comp(Component::kStorage);
  EpochManager::Guard guard(EpochManager::Global());
  RestartBackoff backoff;

restart:
  bool rs = false;
  Node* node = root_.load(std::memory_order_acquire);
  uint64_t v = node->version.ReadLockOrRestart(&rs);
  if (rs || node != root_.load(std::memory_order_acquire)) {
    backoff.Pause();
    goto restart;
  }
  Node* parent = nullptr;
  uint64_t pv = 0;

  while (!node->leaf) {
    if (Ld16(node->count) == kFanout) {
      // Eager split keeps ancestors non-full. Lock parent then node; both
      // upgrades validate the traversal versions, so the split applies to
      // exactly the path we read. Either way, re-traverse.
      if (!SplitNodeOrRestart(parent, pv, node, v, key, value)) {
        backoff.Pause();
      }
      goto restart;
    }

    if (parent != nullptr) {
      parent->version.CheckOrRestart(pv, &rs);
      if (rs) {
        backoff.Pause();
        goto restart;
      }
    }
    parent = node;
    pv = v;
    const int slot = UpperBound(node, key, value);
    Node* child = LdP(node->children[slot]);
    node->version.CheckOrRestart(v, &rs);  // validates slot and child read
    if (rs) {
      backoff.Pause();
      goto restart;
    }
    node = child;
    v = node->version.ReadLockOrRestart(&rs);
    if (rs) {
      backoff.Pause();
      goto restart;
    }
  }

  if (Ld16(node->count) == kFanout) {
    // Leaf split: lock parent (if any) then leaf, split, re-traverse.
    if (!SplitNodeOrRestart(parent, pv, node, v, key, value)) {
      backoff.Pause();
    }
    goto restart;
  }

  node->version.UpgradeToWriteLockOrRestart(v, &rs);
  if (rs) {
    backoff.Pause();
    goto restart;
  }
  if (parent != nullptr) {
    parent->version.CheckOrRestart(pv, &rs);
    if (rs) {
      node->version.WriteUnlock();
      backoff.Pause();
      goto restart;
    }
  }
  const bool ok = LeafInsert(node, key, value);
  node->version.WriteUnlock();
  if (!ok) return Status::KeyExists();
  size_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status BTree::Remove(uint64_t key, uint64_t value) {
  ScopedComponent comp(Component::kStorage);
  EpochManager::Guard guard(EpochManager::Global());
  RestartBackoff backoff;

restart:
  bool rs = false;
  Node* node = root_.load(std::memory_order_acquire);
  uint64_t v = node->version.ReadLockOrRestart(&rs);
  if (rs || node != root_.load(std::memory_order_acquire)) {
    backoff.Pause();
    goto restart;
  }
  Node* parent = nullptr;
  uint64_t pv = 0;
  int node_slot = 0;  // node's slot within parent

  while (!node->leaf) {
    if (parent != nullptr) {
      parent->version.CheckOrRestart(pv, &rs);
      if (rs) {
        backoff.Pause();
        goto restart;
      }
    }
    parent = node;
    pv = v;
    node_slot = UpperBound(node, key, value);
    Node* child = LdP(node->children[node_slot]);
    node->version.CheckOrRestart(v, &rs);
    if (rs) {
      backoff.Pause();
      goto restart;
    }
    node = child;
    v = node->version.ReadLockOrRestart(&rs);
    if (rs) {
      backoff.Pause();
      goto restart;
    }
  }

  const int idx = LowerBound(node, key, value);
  const int count = Ld16(node->count);
  const bool present =
      idx < count && Ld(node->keys[idx]) == key && Ld(node->vals[idx]) == value;
  if (!present) {
    node->version.CheckOrRestart(v, &rs);
    if (rs) {
      backoff.Pause();
      goto restart;
    }
    return Status::NotFound();
  }

  // Unlink a leaf this remove drains, provided it has an in-parent left
  // sibling (the chain predecessor) and the parent keeps >= 1 separator.
  // The leftmost child and the root stay even when empty — a bounded,
  // documented leak matching the lazy-delete trade-off.
  const bool reclaim = count == 1 && parent != nullptr && node_slot > 0 &&
                       Ld16(parent->count) >= 2;
  if (reclaim) {
    parent->version.UpgradeToWriteLockOrRestart(pv, &rs);
    if (rs) {
      backoff.Pause();
      goto restart;
    }
    node->version.UpgradeToWriteLockOrRestart(v, &rs);
    if (rs) {
      parent->version.WriteUnlock();
      backoff.Pause();
      goto restart;
    }
    // Both versions validated: the leaf still holds exactly our entry and
    // still sits at node_slot. The left sibling is pinned by the parent
    // lock (obsoleting it would require this parent), so a plain spinning
    // write lock cannot see it retire.
    Node* left = LdP(parent->children[node_slot - 1]);
    left->version.WriteLockOrRestart(&rs);
    if (rs) {  // unreachable (see above) — but restart rather than corrupt
      assert(false && "left sibling obsolete under locked parent");
      node->version.WriteUnlock();
      parent->version.WriteUnlock();
      backoff.Pause();
      goto restart;
    }
    assert(LdP(left->next) == node);
    St16(node->count, 0);
    StP(left->next, LdP(node->next));
    const int pc = Ld16(parent->count);
    for (int i = node_slot - 1; i + 1 < pc; ++i) {
      St(parent->keys[i], Ld(parent->keys[i + 1]));
      St(parent->vals[i], Ld(parent->vals[i + 1]));
    }
    for (int i = node_slot; i < pc; ++i) {
      StP(parent->children[i], LdP(parent->children[i + 1]));
    }
    St16(parent->count, static_cast<uint16_t>(pc - 1));
    left->version.WriteUnlock();
    parent->version.WriteUnlock();
    node->version.WriteUnlockObsolete();
    EpochManager::Global().Retire(node, FreeNodeDeleter);
    CountEvent(Counter::kBtreeLeafReclaims);
    size_.fetch_sub(1, std::memory_order_relaxed);
    return Status::OK();
  }

  node->version.UpgradeToWriteLockOrRestart(v, &rs);
  if (rs) {
    backoff.Pause();
    goto restart;
  }
  if (parent != nullptr) {
    parent->version.CheckOrRestart(pv, &rs);
    if (rs) {
      node->version.WriteUnlock();
      backoff.Pause();
      goto restart;
    }
  }
  for (int i = idx; i + 1 < count; ++i) {
    St(node->keys[i], Ld(node->keys[i + 1]));
    St(node->vals[i], Ld(node->vals[i + 1]));
  }
  St16(node->count, static_cast<uint16_t>(count - 1));
  node->version.WriteUnlock();
  size_.fetch_sub(1, std::memory_order_relaxed);
  return Status::OK();
}

void BTree::Scan(
    uint64_t lo, uint64_t hi,
    const std::function<bool(uint64_t key, uint64_t value)>& fn) const {
  ScopedComponent comp(Component::kStorage);
  EpochManager::Guard guard(EpochManager::Global());
  RestartBackoff backoff;

  // Resume cursor: the next pair to deliver is >= (ck, cv). Each leaf's
  // batch is copied out and version-validated *before* any callback runs,
  // then the cursor advances past every delivered pair — so a restart
  // (version conflict or reclaimed leaf on the chain) re-descends without
  // duplicating or tearing entries.
  uint64_t ck = lo, cv = 0;
  uint64_t batch_k[kFanout];
  uint64_t batch_v[kFanout];

restart:
  bool rs = false;
  Node* node = root_.load(std::memory_order_acquire);
  uint64_t v = node->version.ReadLockOrRestart(&rs);
  if (rs || node != root_.load(std::memory_order_acquire)) {
    backoff.Pause();
    goto restart;
  }
  while (!node->leaf) {
    // Route toward the smallest pair >= (ck, cv): children[i] holds pairs
    // below separator i, so descend at the first separator > (ck, cv).
    const int slot = UpperBound(node, ck, cv);
    Node* child = LdP(node->children[slot]);
    node->version.CheckOrRestart(v, &rs);
    if (rs) {
      backoff.Pause();
      goto restart;
    }
    node = child;
    v = node->version.ReadLockOrRestart(&rs);
    if (rs) {
      backoff.Pause();
      goto restart;
    }
  }

  for (;;) {
    int n = 0;
    bool past_hi = false;
    const int count = Ld16(node->count);
    for (int idx = LowerBound(node, ck, cv); idx < count; ++idx) {
      const uint64_t k = Ld(node->keys[idx]);
      if (k > hi) {
        past_hi = true;
        break;
      }
      batch_k[n] = k;
      batch_v[n] = Ld(node->vals[idx]);
      ++n;
    }
    Node* next = LdP(node->next);
    node->version.CheckOrRestart(v, &rs);
    if (rs) {
      backoff.Pause();
      goto restart;
    }
    for (int i = 0; i < n; ++i) {
      if (!fn(batch_k[i], batch_v[i])) return;
      if (batch_v[i] != UINT64_MAX) {
        ck = batch_k[i];
        cv = batch_v[i] + 1;
      } else if (batch_k[i] != UINT64_MAX) {
        ck = batch_k[i] + 1;
        cv = 0;
      } else {
        return;  // delivered the maximum possible pair; nothing can follow
      }
    }
    if (past_hi || next == nullptr) return;
    node = next;
    v = node->version.ReadLockOrRestart(&rs);
    if (rs) {
      backoff.Pause();
      goto restart;
    }
  }
}

namespace {

/// Step a (key, value) cursor to the predecessor pair in the total order;
/// false when there is none ((0, 0) has no predecessor).
inline bool PairDecrement(uint64_t* k, uint64_t* v) {
  if (*v > 0) {
    --*v;
    return true;
  }
  if (*k == 0) return false;
  --*k;
  *v = UINT64_MAX;
  return true;
}

}  // namespace

void BTree::ScanReverse(
    uint64_t lo, uint64_t hi,
    const std::function<bool(uint64_t key, uint64_t value)>& fn) const {
  ScopedComponent comp(Component::kStorage);
  EpochManager::Guard guard(EpochManager::Global());
  RestartBackoff backoff;

  // Reverse resume cursor: the next pair to deliver is <= (ck, cv). Leaves
  // only chain forward, so each chunk re-descends from the root toward the
  // cursor, surfaces that leaf's in-range entries from a kFanout stack
  // buffer, then steps the cursor below everything delivered — bounded
  // memory regardless of the range length, and the same no-duplicate /
  // no-tear restart discipline as the forward scan.
  uint64_t ck = hi, cv = UINT64_MAX;
  uint64_t batch_k[kFanout];
  uint64_t batch_v[kFanout];

restart:
  for (;;) {
    bool rs = false;
    Node* node = root_.load(std::memory_order_acquire);
    uint64_t v = node->version.ReadLockOrRestart(&rs);
    if (rs || node != root_.load(std::memory_order_acquire)) {
      backoff.Pause();
      goto restart;
    }
    // Innermost left fence of the descent: every pair in the reached leaf
    // is >= the fence, and — because separators are strict lower bounds of
    // their right subtree (split copies up the right sibling's first pair)
    // — the pair equal to the fence lives in this subtree too. So when the
    // leaf has nothing left in range, the predecessor hunt can jump the
    // cursor straight to PairDecrement(fence).
    bool has_fence = false;
    uint64_t fk = 0, fv = 0;
    while (!node->leaf) {
      // children[slot] spans [separator slot-1, separator slot): exactly
      // the subtree holding the largest pair <= (ck, cv), if it exists.
      const int slot = UpperBound(node, ck, cv);
      Node* child = LdP(node->children[slot]);
      uint64_t sk = 0, sv = 0;
      if (slot > 0) {
        sk = Ld(node->keys[slot - 1]);
        sv = Ld(node->vals[slot - 1]);
      }
      node->version.CheckOrRestart(v, &rs);  // validates slot, child, fence
      if (rs) {
        backoff.Pause();
        goto restart;
      }
      if (slot > 0) {
        has_fence = true;
        fk = sk;
        fv = sv;
      }
      node = child;
      v = node->version.ReadLockOrRestart(&rs);
      if (rs) {
        backoff.Pause();
        goto restart;
      }
    }

    int n = 0;
    const int last = UpperBound(node, ck, cv);  // first pair > cursor
    for (int idx = LowerBound(node, lo, 0); idx < last; ++idx) {
      batch_k[n] = Ld(node->keys[idx]);
      batch_v[n] = Ld(node->vals[idx]);
      ++n;
    }
    node->version.CheckOrRestart(v, &rs);
    if (rs) {
      backoff.Pause();
      goto restart;
    }
    for (int i = n - 1; i >= 0; --i) {
      if (!fn(batch_k[i], batch_v[i])) return;
    }

    uint64_t nk, nv;
    if (n > 0) {
      nk = batch_k[0];  // smallest delivered pair
      nv = batch_v[0];
    } else if (has_fence) {
      nk = fk;  // leaf exhausted below the cursor: resume left of the fence
      nv = fv;
    } else {
      return;  // leftmost leaf and nothing in range: scan complete
    }
    if (!PairDecrement(&nk, &nv) || nk < lo) return;
    ck = nk;
    cv = nv;
  }
}

// ---- point lookups (forward scans of one key) ----

Status BTree::Lookup(uint64_t key, uint64_t* value) const {
  bool found = false;
  Scan(key, key, [&](uint64_t, uint64_t v) {
    *value = v;
    found = true;
    return false;  // first match only
  });
  return found ? Status::OK() : Status::NotFound();
}

void BTree::LookupAll(uint64_t key, std::vector<uint64_t>* values) const {
  values->clear();
  Scan(key, key, [&](uint64_t, uint64_t v) {
    values->push_back(v);
    return true;
  });
}

// ---- validation ----

namespace {

bool CheckNode(const BTree::Node* n, bool is_root, uint64_t* first_k,
               uint64_t* first_v, uint64_t* last_k, uint64_t* last_v,
               uint64_t* leaf_entries) {
  const int count = Ld16(n->count);
  // Sorted, unique (key,value) pairs within the node.
  for (int i = 1; i < count; ++i) {
    if (!PairLess(Ld(n->keys[i - 1]), Ld(n->vals[i - 1]), Ld(n->keys[i]),
                  Ld(n->vals[i]))) {
      return false;
    }
  }
  // Lazy deletion may drain a leaf completely without unlinking it (no
  // in-parent left sibling); only internal nodes must stay populated.
  if (!is_root && count == 0 && !n->leaf) return false;
  if (n->leaf) {
    *leaf_entries += count;
    if (count > 0) {
      *first_k = Ld(n->keys[0]);
      *first_v = Ld(n->vals[0]);
      *last_k = Ld(n->keys[count - 1]);
      *last_v = Ld(n->vals[count - 1]);
    }
    return true;
  }
  // Children ranges must respect separators.
  for (int i = 0; i <= count; ++i) {
    uint64_t cfk = 0, cfv = 0, clk = 0, clv = 0;
    const BTree::Node* child = LdP(n->children[i]);
    if (!CheckNode(child, false, &cfk, &cfv, &clk, &clv, leaf_entries)) {
      return false;
    }
    if (Ld16(child->count) == 0) continue;
    if (i > 0 && PairLess(cfk, cfv, Ld(n->keys[i - 1]), Ld(n->vals[i - 1]))) {
      return false;  // child min below left separator
    }
    if (i < count && PairLess(Ld(n->keys[i]), Ld(n->vals[i]), clk, clv)) {
      return false;  // child max above right separator
    }
  }
  if (count > 0) {
    *first_k = Ld(n->keys[0]);
    *first_v = Ld(n->vals[0]);
    *last_k = Ld(n->keys[count - 1]);
    *last_v = Ld(n->vals[count - 1]);
  }
  return true;
}

}  // namespace

bool BTree::CheckInvariants() const {
  uint64_t fk = 0, fv = 0, lk = 0, lv = 0, leaf_entries = 0;
  if (!CheckNode(root_.load(std::memory_order_acquire), true, &fk, &fv, &lk,
                 &lv, &leaf_entries)) {
    return false;
  }
  return leaf_entries == size();
}

}  // namespace slidb
