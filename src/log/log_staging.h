// Transaction-private log staging: records accumulate here in wire format
// (headers unsealed — lsn and crc zero) instead of paying a ring
// reservation each. LogManager::AppendBatch publishes the records staged
// since its previous call under ONE reservation fetch-add and one
// publish-slot handoff, sealing each record (lsn patch + CRC) in its ring
// copy exactly as Append seals a record appended alone.
//
// The buffer keeps every record, published or not, until Clear(): a
// transaction's buffer is its undo log, walked newest first on abort
// (TransactionManager::Abort). A buffer reused across publishes outside a
// transaction must Clear() after each one, or it grows for the whole run.
//
// Single-owner: a staging buffer belongs to one transaction/thread at a
// time; no synchronization.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "src/log/log_record.h"

namespace slidb {

class LogStagingBuffer {
 public:
  /// Append one record to the staged batch. The header is written with
  /// lsn = 0 and crc = 0; both are filled in at publish time, once the
  /// batch's ring reservation fixes the records' offsets.
  void Stage(uint64_t txn_id, LogRecordType type, const void* payload,
             uint32_t payload_len) {
    // Same hard check as LogManager::Append: a record the recovery scanner
    // rejects as kBadLength must never be staged, sealed, and acked.
    if (payload_len > kMaxLogPayloadLen) {
      std::fprintf(stderr,
                   "slidb: staged log payload %u exceeds scanner bound %u\n",
                   payload_len, kMaxLogPayloadLen);
      std::abort();
    }
    offsets_.push_back(static_cast<uint32_t>(buf_.size()));
    const LogRecordHeader hdr = MakeUnsealedHeader(txn_id, type, payload_len);
    const auto* h = reinterpret_cast<const uint8_t*>(&hdr);
    buf_.insert(buf_.end(), h, h + sizeof(hdr));
    if (payload_len > 0) {
      const auto* p = static_cast<const uint8_t*>(payload);
      buf_.insert(buf_.end(), p, p + payload_len);
    }
  }

  size_t records() const { return offsets_.size(); }

  /// Bytes staged since the last publish: what the next AppendBatch sends.
  size_t unpublished_bytes() const {
    return published_ == offsets_.size() ? 0
                                         : buf_.size() - offsets_[published_];
  }
  /// True once an AppendBatch published any of the retained records.
  bool published_any() const { return published_ != 0; }

  /// Visit every retained record, newest first: fn(header, payload). The
  /// payload pointer is unaligned and valid until the next Stage/Clear.
  template <typename Fn>
  void ForEachNewestFirst(Fn&& fn) const {
    for (size_t i = offsets_.size(); i-- > 0;) {
      LogRecordHeader hdr;
      std::memcpy(&hdr, buf_.data() + offsets_[i], sizeof(hdr));
      fn(hdr, buf_.data() + offsets_[i] + sizeof(hdr));
    }
  }

  /// Drop all records. Keeps capacity for reuse.
  void Clear() {
    buf_.clear();
    offsets_.clear();
    published_ = 0;
  }

 private:
  friend class LogManager;  // AppendBatch seals/patches records in place

  std::vector<uint8_t> buf_;       ///< staged records, wire format
  std::vector<uint32_t> offsets_;  ///< start offset of each record in buf_
  /// Records [0, published_) went out in an earlier AppendBatch (their
  /// headers carry their LSNs); the rest are unsealed.
  size_t published_ = 0;
};

}  // namespace slidb
