// Heap files: unordered record storage over slotted pages with a free-space
// manager. The FSM is a single-latch structure on purpose — the paper
// observes TPC-C New Order shifting contention into Shore's free-space
// manager once SLI removes the lock-manager bottleneck, and slidb
// reproduces that effect.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "src/buffer/buffer_pool.h"
#include "src/storage/slotted_page.h"
#include "src/util/latch.h"
#include "src/util/status.h"

namespace slidb {

class HeapFile {
 public:
  /// `pool` must outlive the heap file. Creates the backing volume file.
  explicit HeapFile(BufferPool* pool);

  HeapFile(const HeapFile&) = delete;
  HeapFile& operator=(const HeapFile&) = delete;

  uint32_t file_id() const { return file_id_; }
  uint64_t page_count() const;

  Status Insert(std::span<const uint8_t> rec, Rid* rid);
  Status Read(Rid rid, std::string* out);

  /// Fixed-size read into a caller buffer (fast path for packed structs).
  Status ReadInto(Rid rid, void* buf, size_t len);

  Status Update(Rid rid, std::span<const uint8_t> rec);
  Status Delete(Rid rid);

  /// Full scan: fn(Rid, record bytes) under the page's shared latch.
  Status Scan(const std::function<void(Rid, std::span<const uint8_t>)>& fn);

  // ---- redo at absolute addresses (recovery replay and undo) ----
  // Redo records address rows physically (page, slot); replay re-creates
  // the exact placement the crashed run produced, so RIDs embedded in
  // surviving index entries stay valid. Undo (UndoRecord in recovery.h)
  // applies each record's inverse through these too, both in restart
  // recovery and when a transaction aborts at runtime: undoing a delete
  // re-occupies the row's own slot.

  /// Materialize `rec` at exactly `rid`, creating pages up to rid.page_no
  /// on demand.
  Status RedoInsert(Rid rid, std::span<const uint8_t> rec);
  Status RedoUpdate(Rid rid, std::span<const uint8_t> rec);
  Status RedoDelete(Rid rid);

 private:
  /// Pick (or create) a page with at least `need` contiguous free bytes.
  uint64_t FindPageWithSpace(size_t need);

  /// Update the FSM's estimate after an insert/delete.
  void UpdateFsm(uint64_t page_no, size_t free_bytes);

  BufferPool* pool_;
  uint32_t file_id_;

  // Free-space map: coarse per-page free-byte estimates. Single latch —
  // see file comment.
  SpinLatch fsm_latch_;
  std::vector<uint32_t> fsm_;
};

}  // namespace slidb
