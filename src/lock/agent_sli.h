// Per-agent-thread SLI state: the list of inherited lock requests awaiting
// the agent's next transaction, plus the request pool the agent allocates
// from. Owned by exactly one agent thread; never shared.
#pragma once

#include <cstdint>

#include "src/lock/lock_request.h"

namespace slidb {

class LockManager;

/// Speculative-lock-inheritance state for one agent thread (paper §4.1:
/// the completing transaction "moves [the request] from the transaction's
/// private list to a different private list owned by the transaction's
/// agent thread").
class AgentSliState {
 public:
  explicit AgentSliState(uint32_t agent_id = 0) : agent_id_(agent_id) {}
  /// Releases what is still inherited through the lock manager that last
  /// ran ReleaseAll with this state (LockManager::ReleaseInherited), which
  /// must still be alive: agents retire before their database.
  ~AgentSliState();

  AgentSliState(const AgentSliState&) = delete;
  AgentSliState& operator=(const AgentSliState&) = delete;

  void set_lock_manager(LockManager* lm) { lock_manager_ = lm; }

  uint32_t agent_id() const { return agent_id_; }

  RequestPool& pool() { return pool_; }

  LockRequest* inherited_head() const { return inherited_head_; }

  void PushInherited(LockRequest* r) {
    r->agent_next = inherited_head_;
    inherited_head_ = r;
    ++inherited_count_;
  }

  /// Detach the whole inheritance list (commit-time processing rebuilds it
  /// with the survivors).
  LockRequest* TakeInherited() {
    LockRequest* h = inherited_head_;
    inherited_head_ = nullptr;
    inherited_count_ = 0;
    return h;
  }

  size_t inherited_count() const { return inherited_count_; }

  /// Durability horizon of the transaction that last released through this
  /// state (LockManager::ReleaseAll): every inherited request was granted
  /// to it, or reclaimed by it, under a dependency at most this.
  uint64_t inherited_dep() const { return inherited_dep_; }
  void set_inherited_dep(uint64_t lsn) { inherited_dep_ = lsn; }

 private:
  uint32_t agent_id_;
  LockManager* lock_manager_ = nullptr;
  LockRequest* inherited_head_ = nullptr;
  size_t inherited_count_ = 0;
  uint64_t inherited_dep_ = 0;
  RequestPool pool_;
};

}  // namespace slidb
