// CRC32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78): the
// checksum used by the durable log format. Runtime-dispatched: the SSE4.2
// crc32 instruction when the CPU has it (the record seal sits on the log
// append hot path), with a portable slicing-by-4 software fallback. Both
// paths produce identical, platform-independent results.
#pragma once

#include <cstddef>
#include <cstdint>

namespace slidb {

/// Extend a running CRC32C with `len` bytes. Start a fresh checksum by
/// passing crc = 0. The state is kept pre-/post-inverted internally, so
/// chained calls over record fragments compose:
///   Crc32c(Crc32c(0, a, la), b, lb) == Crc32c(0, concat(a,b), la+lb)
uint32_t Crc32c(uint32_t crc, const void* data, size_t len);

/// memcpy(dst, src, len) fused with a Crc32c extension over the same bytes
/// in one pass — a record's seal rides its ring copy instead of re-reading
/// the record. Composes exactly like Crc32c. `dst` and `src`
/// must not overlap.
uint32_t Crc32cCopy(uint32_t crc, void* dst, const void* src, size_t len);

}  // namespace slidb
