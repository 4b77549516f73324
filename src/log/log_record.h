// The durable log wire format: self-describing, CRC32C-checksummed records.
//
// Every record is a fixed 32-byte header followed by `payload_len` payload
// bytes, packed back to back with no alignment padding (LSNs are plain byte
// offsets). The format is self-describing in three ways:
//
//   * `payload_len` lets a scanner skip to the next record without knowing
//     the payload type;
//   * `lsn` repeats the record's own start offset, so a reader that lands
//     on stale or misaligned bytes rejects them even if the CRC happens to
//     match (the CRC covers the lsn, so a record copied to the wrong offset
//     can never validate);
//   * `crc` (CRC32C) covers every header byte after the crc field itself
//     plus the whole payload, so a torn tail, a bit flip, or a partially
//     overwritten record is detected on read-back.
//
//       offset  field         checksum coverage
//       0       crc     u32   -- (stores the checksum)
//       4       payload_len   u32   covered
//       8       txn_id  u64   covered
//       16      lsn     u64   covered
//       24      type    u8    covered
//       25      version u8    covered
//       26      pad[6]        covered (must be zero)
//       32      payload [payload_len]  covered
//
// Every record, appended alone or published in a batch, carries its own
// seal; there is no other framing.
//
// Torn-write rule: the durable stream is valid up to the first record that
// fails any check (short header, implausible length, lsn mismatch, CRC
// mismatch), so a cut keeps exactly the complete records before it and
// discards everything from the cut on — see RecoveryManager. The version is
// checked after the CRC, so a record of another format version is a
// complete, checksummed record: recovery fails on it instead of discarding
// it as a torn tail.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "src/util/crc32c.h"

namespace slidb {

/// Log sequence number: byte offset of a position in the (virtual,
/// unbounded) log stream. Append returns the *end* LSN of the record.
using Lsn = uint64_t;

enum class LogRecordType : uint8_t {
  kUpdate = 0,   ///< heap before+after image (HeapRedoPayload + images)
  kInsert,       ///< heap after-image (HeapRedoPayload + image bytes)
  kDelete,       ///< heap delete (HeapRedoPayload + before-image)
  kCommit,       ///< transaction commit point (no payload)
  kAbort,        ///< transaction abort (no payload; undo ran in memory)
  kBegin,        ///< transaction begin (no payload)
  kIndexInsert,  ///< index entry add (IndexRedoPayload)
  kIndexRemove,  ///< index entry remove (IndexRedoPayload)
  kCheckpointBegin,  ///< fuzzy checkpoint opens (CheckpointBeginPayload +
                     ///< active-txn table)
  kCheckpointEnd,    ///< fuzzy checkpoint complete (CheckpointEndPayload);
                     ///< recovery may start at the paired begin's scan LSN
  kCheckpointImage,  ///< one row's committed image (HeapRedoPayload form,
                     ///< before_len == 0), replayed unconditionally
  kCheckpointIndexImage,  ///< one index entry's image (IndexRedoPayload)
  kClr,  ///< compensation: redo-only undo of one loser record
         ///< (ClrPayload + the inner redo payload); never itself undone
};

/// Version 3: the batch-seal envelope type is gone, which renumbers the
/// checkpoint and CLR types (version 2 gave heap redo payloads a
/// before-image and added those types). Recovery of a stream written in any
/// other version fails with an error naming both versions — the format is
/// in-tree only, with no migration path.
inline constexpr uint8_t kLogFormatVersion = 3;

struct LogRecordHeader {
  uint32_t crc;          ///< CRC32C over header bytes [4, 32) + payload
  uint32_t payload_len;  ///< payload bytes following the header
  uint64_t txn_id;
  Lsn lsn;               ///< start offset of this header in the log stream
  uint8_t type;          ///< LogRecordType
  uint8_t version;       ///< kLogFormatVersion
  uint8_t pad[6];        ///< zero (covered by the CRC)
};
static_assert(sizeof(LogRecordHeader) == 32);

/// CRC coverage starts just past the crc field.
inline constexpr size_t kLogCrcSkip = sizeof(uint32_t);

/// Checksum a (header, payload) pair. The header's `crc` field is not read.
inline uint32_t ComputeLogRecordCrc(const LogRecordHeader& hdr,
                                    const void* payload) {
  uint32_t c =
      Crc32c(0, reinterpret_cast<const uint8_t*>(&hdr) + kLogCrcSkip,
             sizeof(hdr) - kLogCrcSkip);
  if (hdr.payload_len > 0) c = Crc32c(c, payload, hdr.payload_len);
  return c;
}

/// An unsealed header: lsn and crc stay zero until the writer knows the
/// record's stream offset (LogManager seals it in the ring copy).
inline LogRecordHeader MakeUnsealedHeader(uint64_t txn_id, LogRecordType type,
                                          uint32_t payload_len) {
  LogRecordHeader hdr{};
  hdr.payload_len = payload_len;
  hdr.txn_id = txn_id;
  hdr.type = static_cast<uint8_t>(type);
  hdr.version = kLogFormatVersion;
  return hdr;
}

/// Build a sealed header for a record starting at `lsn`: the reference
/// sealer tests build streams with.
inline LogRecordHeader MakeLogRecordHeader(uint64_t txn_id, LogRecordType type,
                                           Lsn lsn, const void* payload,
                                           uint32_t payload_len) {
  LogRecordHeader hdr = MakeUnsealedHeader(txn_id, type, payload_len);
  hdr.lsn = lsn;
  hdr.crc = ComputeLogRecordCrc(hdr, payload);
  return hdr;
}

// ---- typed redo payloads ----------------------------------------------------
// Payload structs are memcpy'd onto the wire (the stream has no alignment
// guarantees) and must stay trivially copyable with explicit padding.

/// kInsert / kUpdate / kDelete / kCheckpointImage: the row address, then
/// `before_len` bytes of before-image (undo information), then the
/// after-image (payload_len - sizeof - before_len bytes). kInsert and
/// kCheckpointImage carry no before-image; kDelete carries no after-image;
/// kUpdate carries both. The before-image is what the restart undo pass
/// restores when the record's transaction turns out to be a loser.
struct HeapRedoPayload {
  uint32_t table;   ///< TableId (catalog position; schema is re-created
                    ///< identically before recovery)
  uint16_t slot;
  uint8_t pad[2];   ///< zero
  uint64_t page_no;
  uint32_t before_len;  ///< before-image bytes following this struct
  uint8_t pad2[4];      ///< zero
};
static_assert(sizeof(HeapRedoPayload) == 24);

/// kIndexInsert / kIndexRemove / kCheckpointIndexImage: one index entry.
/// The operation is the record type; key/value identify the entry in either
/// index kind. Index undo is logical (insert undoes as remove and vice
/// versa), so no separate before-image is needed.
struct IndexRedoPayload {
  uint32_t index;   ///< IndexId (catalog position)
  uint8_t pad[4];   ///< zero
  uint64_t key;
  uint64_t value;
};
static_assert(sizeof(IndexRedoPayload) == 24);

// ---- checkpoint and compensation payloads -----------------------------------

/// One active-transaction-table entry in a kCheckpointBegin payload.
struct CheckpointTxnEntry {
  uint64_t txn_id;
  Lsn first_lsn;  ///< LSN of the txn's first published record
};
static_assert(sizeof(CheckpointTxnEntry) == 16);

/// Sentinel for "no constraining LSN" (e.g. a transaction that has not
/// published any record yet).
inline constexpr Lsn kLsnNone = ~0ULL;

/// kCheckpointBegin: pure marker opening a fuzzy checkpoint. Carries no
/// payload; its LSN is the anchor the paired kCheckpointEnd names.
struct CheckpointBeginPayload {
  uint64_t reserved;  ///< zero (room for future fields)
};
static_assert(sizeof(CheckpointBeginPayload) == 8);

/// kCheckpointEnd: pairs with the kCheckpointBegin at `begin_lsn`;
/// `active_txns` CheckpointTxnEntry records follow. A checkpoint is
/// complete — and usable as a recovery anchor — only when both records sit
/// inside the valid prefix.
///
/// The active-txn table is snapshotted AFTER the begin record is appended:
/// any transaction with a published record below begin_lsn that is still
/// uncommitted when the end record is built must appear here (one that
/// committed or aborted in between has its outcome record below the end
/// record, so it can never be a loser of a recovery anchored at this
/// checkpoint). `redo_start_lsn` = min(begin_lsn, every entry's first_lsn):
/// a loser that was already running when the checkpoint opened may have
/// published records (watermark partial publishes) the undo pass needs
/// before-images from, so redo must scan from there.
struct CheckpointEndPayload {
  Lsn begin_lsn;       ///< LSN of the matching kCheckpointBegin record
  Lsn redo_start_lsn;  ///< min(begin_lsn, active first LSNs): scan from here
  uint64_t image_records;  ///< heap + index images written (observability)
  uint32_t active_txns;    ///< CheckpointTxnEntry records following
  uint8_t pad[4];          ///< zero
};
static_assert(sizeof(CheckpointEndPayload) == 32);

/// kClr: a compensation record written while rolling back a loser. The
/// inner redo payload (HeapRedoPayload or IndexRedoPayload form, with
/// before_len == 0) follows and is applied exactly like the corresponding
/// `redo_type` record. CLRs are redo-only: the undo pass never undoes
/// them, so a crash *during* undo replays the partial rollback and then
/// re-runs the full undo idempotently (restoring absolute before-images
/// converges regardless of how much compensation already applied).
struct ClrPayload {
  uint8_t redo_type;  ///< LogRecordType of the inner redo payload
  uint8_t pad[7];     ///< zero
  Lsn undo_of_lsn;    ///< LSN of the loser record this compensates
};
static_assert(sizeof(ClrPayload) == 16);

// ---- stream scanning --------------------------------------------------------

/// Why a scan stopped at a given position.
enum class LogScanStatus : uint8_t {
  kOk,           ///< a valid record was decoded
  kEndOfStream,  ///< clean end: the stream stops exactly at a boundary
  kTornHeader,   ///< fewer than sizeof(LogRecordHeader) bytes remain
  kTornPayload,  ///< header decodes but the payload is cut short
  kBadLength,    ///< payload_len fails the sanity bound
  kBadLsn,       ///< header's lsn does not match its stream offset
  kBadVersion,   ///< a checksummed record of another format version
  kBadCrc,       ///< checksum mismatch (bit flip or partial overwrite)
};

inline const char* LogScanStatusName(LogScanStatus s) {
  switch (s) {
    case LogScanStatus::kOk: return "ok";
    case LogScanStatus::kEndOfStream: return "end_of_stream";
    case LogScanStatus::kTornHeader: return "torn_header";
    case LogScanStatus::kTornPayload: return "torn_payload";
    case LogScanStatus::kBadLength: return "bad_length";
    case LogScanStatus::kBadLsn: return "bad_lsn";
    case LogScanStatus::kBadVersion: return "bad_version";
    case LogScanStatus::kBadCrc: return "bad_crc";
  }
  return "?";
}

/// Payloads above this bound are treated as corruption during a scan: no
/// writer produces them (heap records are at most one 8 KiB page), and the
/// bound stops a garbage length from swallowing the rest of the stream.
inline constexpr uint32_t kMaxLogPayloadLen = 1u << 20;

/// Decode the record at byte offset `pos` of `stream` (whose first byte is
/// log offset `base_lsn`). On kOk fills `hdr` (and `payload` with a pointer
/// into the stream) — callers must copy payload fields out with memcpy
/// before use. Any other status means the scan must stop at `pos`. The
/// version is checked last: the CRC covers it, so kBadVersion means a
/// complete record of another format, never a garbled or torn one.
///
/// `verify_crc = false` skips the checksum (structural checks only): for
/// re-walking a prefix that a verifying scan already validated — the CRC
/// dominates decode cost, and recovery walks the prefix up to three times
/// (scan, replay, snapshot re-log).
inline LogScanStatus DecodeLogRecord(const uint8_t* stream, size_t size,
                                     size_t pos, Lsn base_lsn,
                                     LogRecordHeader* hdr,
                                     const uint8_t** payload,
                                     bool verify_crc = true) {
  if (pos == size) return LogScanStatus::kEndOfStream;
  if (size - pos < sizeof(LogRecordHeader)) return LogScanStatus::kTornHeader;
  std::memcpy(hdr, stream + pos, sizeof(LogRecordHeader));
  if (hdr->payload_len > kMaxLogPayloadLen) return LogScanStatus::kBadLength;
  if (hdr->lsn != base_lsn + pos) return LogScanStatus::kBadLsn;
  if (size - pos - sizeof(LogRecordHeader) < hdr->payload_len) {
    return LogScanStatus::kTornPayload;
  }
  const uint8_t* body = stream + pos + sizeof(LogRecordHeader);
  if (verify_crc && hdr->crc != ComputeLogRecordCrc(*hdr, body)) {
    return LogScanStatus::kBadCrc;
  }
  if (hdr->version != kLogFormatVersion) return LogScanStatus::kBadVersion;
  *payload = body;
  return LogScanStatus::kOk;
}

}  // namespace slidb
