// Slotted-page record layout over raw 8 KiB pages: a header and slot
// directory grow from the front, record payloads from the back.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>

#include "src/buffer/page.h"
#include "src/util/status.h"

namespace slidb {

/// Record id: page number + slot within the page. Packs into a uint64 so
/// index values and lock ids can carry it.
struct Rid {
  uint64_t page_no = 0;
  uint16_t slot = 0;

  uint64_t ToU64() const { return (page_no << 16) | slot; }
  static Rid FromU64(uint64_t v) {
    return Rid{v >> 16, static_cast<uint16_t>(v & 0xffff)};
  }
  bool operator==(const Rid& o) const {
    return page_no == o.page_no && slot == o.slot;
  }
};

/// Static accessors over a Page laid out as a slotted page. All methods
/// assume the caller holds the appropriate buffer-pool content latch.
class SlottedPage {
 public:
  static constexpr uint16_t kInvalidOffset = 0xffff;

  struct Header {
    uint16_t slot_count;   ///< slots ever allocated (including holes)
    uint16_t live_count;   ///< slots currently holding a record
    uint16_t free_begin;   ///< first byte past the slot directory
    uint16_t free_end;     ///< first byte of the record heap
  };

  struct Slot {
    uint16_t offset;  ///< kInvalidOffset = hole
    uint16_t length;
  };

  static void Init(Page* page) {
    auto* h = HeaderOf(page);
    h->slot_count = 0;
    h->live_count = 0;
    h->free_begin = sizeof(Header);
    h->free_end = kPageSize;
  }

  /// Contiguous free bytes available for one more record (+ its slot).
  static size_t FreeSpace(const Page* page) {
    const auto* h = HeaderOf(page);
    const size_t gap = h->free_end - h->free_begin;
    return gap > sizeof(Slot) ? gap - sizeof(Slot) : 0;
  }

  static uint16_t LiveCount(const Page* page) {
    return HeaderOf(page)->live_count;
  }

  /// Largest record that can ever fit on an empty page.
  static constexpr size_t MaxRecordSize() {
    return kPageSize - sizeof(Header) - sizeof(Slot);
  }

  /// Insert a record; returns the slot index or -1 if it does not fit.
  /// Hole slots are deliberately NOT reused: a hole may belong to an
  /// uncommitted delete whose undo must re-occupy the same slot to keep its
  /// RID (and the index entries pointing at it) stable.
  static int Insert(Page* page, std::span<const uint8_t> rec) {
    auto* h = HeaderOf(page);
    if (static_cast<size_t>(h->free_end - h->free_begin) <
        rec.size() + sizeof(Slot)) {
      return -1;
    }
    const int slot_idx = h->slot_count++;
    h->free_begin += sizeof(Slot);
    h->free_end = static_cast<uint16_t>(h->free_end - rec.size());
    std::memcpy(page->bytes + h->free_end, rec.data(), rec.size());
    Slot* slots = SlotsOf(page);
    slots[slot_idx].offset = h->free_end;
    slots[slot_idx].length = static_cast<uint16_t>(rec.size());
    h->live_count++;
    return slot_idx;
  }

  /// Re-occupy a hole slot with a record (abort path: undo of a delete must
  /// restore the record under its original RID). Compacts if the record
  /// heap is fragmented. Fails if the slot is live or space is gone.
  static Status InsertAt(Page* page, uint16_t slot_idx,
                         std::span<const uint8_t> rec) {
    auto* h = HeaderOf(page);
    if (slot_idx >= h->slot_count) return Status::InvalidArgument("slot");
    Slot* slots = SlotsOf(page);
    if (slots[slot_idx].offset != kInvalidOffset) {
      return Status::KeyExists("slot is live");
    }
    if (static_cast<size_t>(h->free_end - h->free_begin) < rec.size()) {
      Compact(page);
      if (static_cast<size_t>(h->free_end - h->free_begin) < rec.size()) {
        return Status::Corruption("undo space lost");
      }
    }
    h->free_end = static_cast<uint16_t>(h->free_end - rec.size());
    std::memcpy(page->bytes + h->free_end, rec.data(), rec.size());
    slots = SlotsOf(page);
    slots[slot_idx].offset = h->free_end;
    slots[slot_idx].length = static_cast<uint16_t>(rec.size());
    h->live_count++;
    return Status::OK();
  }

  /// Redo-apply an insert at a specific slot (crash-recovery replay into
  /// fresh storage, and the undo of a delete). Extends the slot directory
  /// with holes up to `slot_idx`, then places the record there. Replay
  /// re-executes the original insert sequence page by page, so space that
  /// sufficed at runtime suffices here; a shortfall means the log and the
  /// replay diverged.
  static Status RedoInsertAt(Page* page, uint16_t slot_idx,
                             std::span<const uint8_t> rec) {
    auto* h = HeaderOf(page);
    if (slot_idx >= h->slot_count) {
      // Extend the directory with holes up to the target slot; InsertAt
      // then handles placement (space check, compaction) like any other
      // hole re-occupation.
      const size_t new_slots = slot_idx + 1 - h->slot_count;
      if (static_cast<size_t>(h->free_end - h->free_begin) <
          new_slots * sizeof(Slot)) {
        return Status::Corruption("redo slot directory does not fit");
      }
      Slot* slots = SlotsOf(page);
      for (uint16_t i = h->slot_count; i <= slot_idx; ++i) {
        slots[i].offset = kInvalidOffset;
        slots[i].length = 0;
      }
      h->slot_count = static_cast<uint16_t>(slot_idx + 1);
      h->free_begin = static_cast<uint16_t>(h->free_begin +
                                            new_slots * sizeof(Slot));
    }
    return InsertAt(page, slot_idx, rec);
  }

  /// Read a record; returns an empty span for holes / bad slots.
  static std::span<const uint8_t> Get(const Page* page, uint16_t slot_idx) {
    const auto* h = HeaderOf(page);
    if (slot_idx >= h->slot_count) return {};
    const Slot& s = SlotsOf(page)[slot_idx];
    if (s.offset == kInvalidOffset) return {};
    return {page->bytes + s.offset, s.length};
  }

  /// Update in place. Only same-or-smaller sizes are supported (slidb
  /// workload records are fixed-size); growth returns NotSupported.
  static Status Update(Page* page, uint16_t slot_idx,
                       std::span<const uint8_t> rec) {
    auto* h = HeaderOf(page);
    if (slot_idx >= h->slot_count) return Status::InvalidArgument("slot");
    Slot& s = SlotsOf(page)[slot_idx];
    if (s.offset == kInvalidOffset) return Status::NotFound("hole");
    if (rec.size() > s.length) {
      return Status::NotSupported("record growth unsupported");
    }
    std::memcpy(page->bytes + s.offset, rec.data(), rec.size());
    s.length = static_cast<uint16_t>(rec.size());
    return Status::OK();
  }

  /// Delete a record, leaving a hole. Space is reclaimed by Compact().
  static Status Delete(Page* page, uint16_t slot_idx) {
    auto* h = HeaderOf(page);
    if (slot_idx >= h->slot_count) return Status::InvalidArgument("slot");
    Slot& s = SlotsOf(page)[slot_idx];
    if (s.offset == kInvalidOffset) return Status::NotFound("hole");
    s.offset = kInvalidOffset;
    s.length = 0;
    h->live_count--;
    return Status::OK();
  }

  /// Compact the record heap, squeezing out holes. Slot indexes (and
  /// therefore RIDs) are preserved.
  static void Compact(Page* page) {
    auto* h = HeaderOf(page);
    Slot* slots = SlotsOf(page);
    uint8_t tmp[kPageSize];
    uint16_t write = kPageSize;
    for (uint16_t i = 0; i < h->slot_count; ++i) {
      if (slots[i].offset == kInvalidOffset) continue;
      write = static_cast<uint16_t>(write - slots[i].length);
      std::memcpy(tmp + write, page->bytes + slots[i].offset, slots[i].length);
      slots[i].offset = write;
    }
    std::memcpy(page->bytes + write, tmp + write, kPageSize - write);
    h->free_end = write;
  }

  /// Iterate live records: fn(slot_idx, bytes).
  template <typename Fn>
  static void ForEach(const Page* page, Fn&& fn) {
    const auto* h = HeaderOf(page);
    const Slot* slots = SlotsOf(page);
    for (uint16_t i = 0; i < h->slot_count; ++i) {
      if (slots[i].offset == kInvalidOffset) continue;
      fn(i, std::span<const uint8_t>{page->bytes + slots[i].offset,
                                     slots[i].length});
    }
  }

 private:
  static Header* HeaderOf(Page* page) {
    return reinterpret_cast<Header*>(page->bytes);
  }
  static const Header* HeaderOf(const Page* page) {
    return reinterpret_cast<const Header*>(page->bytes);
  }
  static Slot* SlotsOf(Page* page) {
    return reinterpret_cast<Slot*>(page->bytes + sizeof(Header));
  }
  static const Slot* SlotsOf(const Page* page) {
    return reinterpret_cast<const Slot*>(page->bytes + sizeof(Header));
  }
};

}  // namespace slidb
