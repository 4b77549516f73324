#include "src/log/log_manager.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "src/stats/counters.h"
#include "src/stats/profiler.h"
#include "src/util/crc32c.h"
#include "src/util/futex.h"
#include "src/util/time_util.h"

namespace slidb {

LogManager::LogManager(LogOptions options) : options_(std::move(options)) {
  ring_ = std::make_unique<uint8_t[]>(options_.buffer_bytes);
  const size_t want_slots = options_.reservation_slots != 0
                                ? options_.reservation_slots
                                : options_.buffer_bytes / 128;
  // Upper bound 2^19: the slot count must stay strictly below the 2^20
  // seq-tag space or a round's tag becomes indistinguishable from the
  // same residue one wrap later (see kSeqMask).
  const size_t slots =
      std::bit_ceil(std::clamp<size_t>(want_slots, 2, size_t{1} << 19));
  slot_mask_ = slots - 1;
  slots_ = std::make_unique<PublishSlot[]>(slots);
  for (size_t i = 0; i < slots; ++i) {
    slots_[i].tag.store(i, std::memory_order_relaxed);  // free for round 0
  }
  flusher_ = std::thread([this] { FlusherLoop(); });
}

LogManager::~LogManager() {
  {
    std::lock_guard<std::mutex> g(flush_mu_);
    stop_ = true;
  }
  flush_cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
}

void LogManager::CopyIntoRing(Lsn at, const void* src, size_t len) {
  const size_t cap = options_.buffer_bytes;
  const size_t pos = static_cast<size_t>(at % cap);
  const size_t first = std::min(len, cap - pos);
  std::memcpy(ring_.get() + pos, src, first);
  if (first < len) {
    std::memcpy(ring_.get(), static_cast<const uint8_t*>(src) + first,
                len - first);
  }
}

uint32_t LogManager::CopyIntoRingCrc(Lsn at, const void* src, size_t len,
                                     uint32_t crc) {
  const size_t cap = options_.buffer_bytes;
  const size_t pos = static_cast<size_t>(at % cap);
  const size_t first = std::min(len, cap - pos);
  crc = Crc32cCopy(crc, ring_.get() + pos, src, first);
  if (first < len) {
    crc = Crc32cCopy(crc, ring_.get(),
                     static_cast<const uint8_t*>(src) + first, len - first);
  }
  return crc;
}

void LogManager::KickFlusher() {
  kicked_.store(true, std::memory_order_release);
  flush_cv_.notify_one();
}

void LogManager::BackpressurePause() {
  CountEvent(Counter::kLogResvRetries);
  KickFlusher();
  const uint64_t t0 = RdCycles();
  std::this_thread::yield();
  if (ThreadProfile* p = ThreadProfile::Current()) {
    p->AttributeBlocked(t0, RdCycles());
  }
}

Lsn LogManager::Append(uint64_t txn_id, LogRecordType type,
                       const void* payload, uint32_t payload_len) {
  ScopedComponent comp(Component::kLog);
  assert(sizeof(LogRecordHeader) + payload_len <= options_.buffer_bytes);
  // Hard check, not an assert: a record the recovery scanner would reject
  // as corrupt (kBadLength) must never be sealed and acked durable — the
  // torn-write rule would then discard it AND every commit after it.
  if (payload_len > kMaxLogPayloadLen) {
    std::fprintf(stderr,
                 "slidb: log record payload %u exceeds scanner bound %u\n",
                 payload_len, kMaxLogPayloadLen);
    std::abort();
  }

  const size_t total = sizeof(LogRecordHeader) + payload_len;
  uint64_t seq;
  const Lsn start = Reserve(total, &seq);
  LogRecordHeader hdr = MakeUnsealedHeader(txn_id, type, payload_len);
  SealIntoRing(reinterpret_cast<uint8_t*>(&hdr), payload, start);
  return Publish(seq, start + total, 1);
}

size_t LogManager::SealIntoRing(uint8_t* hdr, const void* payload, Lsn at) {
  // The seal waits for the record's start LSN: the CRC covers the lsn
  // field, binding the checksum to the offset. Staged headers sit at
  // unaligned offsets, so fields are patched with memcpy, never a cast.
  std::memcpy(hdr + offsetof(LogRecordHeader, lsn), &at, sizeof(at));
  uint32_t payload_len;
  std::memcpy(&payload_len, hdr + offsetof(LogRecordHeader, payload_len),
              sizeof(payload_len));
  uint32_t c = Crc32c(0, hdr + kLogCrcSkip,
                      sizeof(LogRecordHeader) - kLogCrcSkip);
  if (payload_len > 0) {
    c = CopyIntoRingCrc(at + sizeof(LogRecordHeader), payload, payload_len, c);
  }
  std::memcpy(hdr + offsetof(LogRecordHeader, crc), &c, sizeof(c));
  CopyIntoRing(at, hdr, sizeof(LogRecordHeader));
  return sizeof(LogRecordHeader) + payload_len;
}

Lsn LogManager::Reserve(size_t total, uint64_t* seq_out) {
  // One fetch-add claims both the byte range [start, end) and the record's
  // publish-slot sequence number; LSN order and slot order can never
  // diverge. No ordering is published here — the record becomes visible
  // only through the slot release-store in Publish.
  const uint64_t ticket = ticket_.fetch_add(
      (uint64_t{1} << kSeqShift) + total, std::memory_order_relaxed);
  const Lsn start = ticket & kOffsetMask;
  const uint64_t seq = ticket >> kSeqShift;
  // Ring-space backpressure: our bytes may only be written once everything
  // they would overwrite is durable. Earlier reservations never depend on
  // later ones, so the earliest unfilled writer can always make progress
  // and the wait is deadlock-free.
  while (start + total - durable_lsn_.load(std::memory_order_acquire) >
         options_.buffer_bytes) {
    BackpressurePause();
  }
  // Slot backpressure: at most `reservation_slots` records in flight. The
  // slot is ours only once its previous-round occupant was consumed (tag
  // values at this index move seq → seq+1 → seq+slots → ... in modular seq
  // space, so an unfilled predecessor and an unconsumed one both read as
  // "not our turn"). Rather than waiting for a pass, help drain the
  // publish queue ourselves (cooperative consume); when that makes no
  // progress (consumer busy, or an unfilled predecessor stalls the queue)
  // back off so the stalled writer can run.
  const PublishSlot& slot = slots_[seq & slot_mask_];
  while (slot.tag.load(std::memory_order_acquire) != (seq & kSeqMask)) {
    if (!TryAdvanceWatermark()) BackpressurePause();
  }
  *seq_out = seq;
  return start;
}

Lsn LogManager::Publish(uint64_t seq, Lsn end, uint64_t records) {
  records_.fetch_add(records, std::memory_order_relaxed);
  PublishSlot& slot = slots_[seq & slot_mask_];
  slot.end = end;
  // The release pairs with the consumer's acquire tag load, making `end`
  // and the ring bytes visible before the watermark can cover them.
  slot.tag.store((seq + 1) & kSeqMask, std::memory_order_release);
  return end;
}

Lsn LogManager::AppendBatch(LogStagingBuffer* staging) {
  ScopedComponent comp(Component::kLog);
  const size_t batch_bytes = staging->unpublished_bytes();
  if (batch_bytes == 0) return appended_lsn();
  const std::vector<uint32_t>& offsets = staging->offsets_;
  uint8_t* const buf = staging->buf_.data();
  const size_t n = offsets.size();
  const auto end_of = [&](size_t i) -> size_t {
    return i + 1 < n ? offsets[i + 1] : staging->buf_.size();
  };
  const size_t cap = options_.buffer_bytes;
  // A reservation can never exceed the ring (its bytes would have to
  // overwrite data that cannot become durable first — a self-deadlock), so
  // oversized batches split at record granularity. Half the ring per chunk
  // keeps passes pipelined behind very large batches; in the intended
  // regime (staging watermark << ring) a batch is one chunk.
  const size_t chunk_limit = std::max<size_t>(cap / 2, 1);
  Lsn end = 0;
  size_t i = staging->published_;
  while (i < n) {
    const size_t first = offsets[i];
    if (end_of(i) - first > cap) {
      std::fprintf(stderr,
                   "slidb: batched log record (%zu B) exceeds ring (%zu B)\n",
                   end_of(i) - first, cap);
      std::abort();
    }
    size_t j = i + 1;
    while (j < n && end_of(j) - first <= chunk_limit) ++j;
    // The whole chunk rides one ticket and one publish slot — the
    // amortization this path exists for.
    uint64_t seq;
    Lsn cursor = Reserve(end_of(j - 1) - first, &seq);
    for (size_t k = i; k < j; ++k) {
      uint8_t* rec = buf + offsets[k];
      cursor += SealIntoRing(rec, rec + sizeof(LogRecordHeader), cursor);
    }
    end = Publish(seq, cursor, j - i);
    CountEvent(Counter::kLogBatchAppends);
    i = j;
  }
  CountEvent(Counter::kLogBatchRecords, n - staging->published_);
  CountEvent(Counter::kLogBatchBytes, batch_bytes);
  staging->published_ = n;
  return end;
}

void LogManager::WaitDurable(Lsn lsn) {
  if (durable_lsn_.load(std::memory_order_acquire) >= lsn) return;
  DeferredAck ack;  // never abandoned, so it may live on the stack
  ack.lsn = lsn;
  WaitDurable(&ack, /*deadline_ns=*/0);
}

namespace {

/// The longest the background flusher sleeps while it finds no work. The
/// states only its timer resolves (an idle tail, an ack a pass left
/// pending, a kick whose notify it missed) wait at most about twice this.
constexpr uint64_t kMaxIdleWaitUs = 2'000;

bool IsWaiting(uint32_t state) {
  return state == DeferredAck::kWaiting || state == DeferredAck::kWaitingUntil;
}

/// Wake the owner of an ack whose state just left `old`.
void WakeOwner(DeferredAck* ack, uint32_t old) {
  if (old == DeferredAck::kWaitingUntil) {
    FutexWake(ack->state);
  } else {
    ack->state.notify_one();
  }
}

}  // namespace

bool LogManager::SettledInline(DeferredAck* ack) {
  if (durable_lsn_.load(std::memory_order_acquire) < ack->lsn) return false;
  ack->settle_ns = ack->park_ns;
  ack->state.store(DeferredAck::kDurable, std::memory_order_release);
  return true;
}

bool LogManager::WaitDurable(DeferredAck* ack, uint64_t deadline_ns) {
  ScopedComponent comp(Component::kLog);
  // This thread's time since its previous durability wait returned: the
  // accumulation rule's between-commits sample.
  thread_local uint64_t last_return_cycles = 0;
  uint64_t gap = last_return_cycles != 0 ? RdCycles() - last_return_cycles : 0;
  const uint32_t waiting = deadline_ns == 0 ? DeferredAck::kWaiting
                                            : DeferredAck::kWaitingUntil;
  // A deadline commit leads only when a pass fits its remaining budget.
  const auto may_lead = [&] {
    return deadline_ns == 0 ||
           NowNanos() + static_cast<uint64_t>(CyclesToNanos(
                            pass_cycles_.load(std::memory_order_relaxed))) <
               deadline_ns;
  };
  bool durable = true;
  for (;;) {
    if (SettledInline(ack)) break;
    const bool can_lead = may_lead();
    if (!can_lead || !TryTakeRole()) {
      ack->gap_cycles = std::exchange(gap, 0);
      Enqueue(ack, waiting);  // a queued ack also draws the background pass
      if (can_lead && !role_.load(std::memory_order_seq_cst) &&
          TryTakeRole()) {
        // The role was released between our attempt and our push; this
        // re-check pairs with HandOffRole's, so one of us settles or
        // promotes the queued ack.
        SettleAcks(/*shutdown=*/false);
        HandOffRole();
      }
      const uint64_t t0 = RdCycles();
      uint32_t s = ack->state.load(std::memory_order_acquire);
      while (s == waiting && (deadline_ns == 0 || NowNanos() < deadline_ns)) {
        if (deadline_ns == 0) {
          ack->state.wait(waiting, std::memory_order_acquire);
        } else {
          FutexWaitUntil(ack->state, waiting, deadline_ns);
        }
        s = ack->state.load(std::memory_order_acquire);
      }
      if (ThreadProfile* p = ThreadProfile::Current()) {
        p->AttributeBlocked(t0, RdCycles());
      }
      // Deadline passed: leave the node queued for a later pass, which
      // nobody waits on now, so kick the flusher as ParkDeferred does.
      // Losing this race means a pass settled or promoted us meanwhile.
      if (s == waiting &&
          ack->state.compare_exchange_strong(s, DeferredAck::kParked,
                                             std::memory_order_acq_rel)) {
        KickFlusher();
        durable = false;
        break;
      }
      if (s == DeferredAck::kDurable || s == DeferredAck::kLost) {
        CountEvent(Counter::kGroupCommitWaitersWoken);
        break;
      }
      // Promoted: the role is ours and the node is back in our hands.
      if (!may_lead()) {
        HandOffRole();
        continue;
      }
    }
    FoldGap(std::exchange(gap, 0));
    LeadPass(/*committer=*/true);
    // Still not durable: an earlier reservation is being filled. Retry
    // rather than sleep on anyone.
    if (durable_lsn_.load(std::memory_order_acquire) < ack->lsn) {
      std::this_thread::yield();
    }
  }
  last_return_cycles = RdCycles();
  return durable;
}

bool LogManager::ParkDeferred(DeferredAck* ack) {
  // Inline settle when the horizon is already durable (the common case on
  // read-mostly workloads: the observed writers hardened flushes ago).
  if (SettledInline(ack)) return false;
  Enqueue(ack, DeferredAck::kParked);
  // Nobody waits on this ack: kick the background flusher, whose pass
  // settles it unless a committer's pass gets there first.
  KickFlusher();
  return true;
}

bool LogManager::AdvanceWatermarkLocked() {
  Lsn w = watermark_.load(std::memory_order_relaxed);
  bool advanced = false;
  for (;;) {
    PublishSlot& slot = slots_[next_seq_ & slot_mask_];
    if (slot.tag.load(std::memory_order_acquire) !=
        ((next_seq_ + 1) & kSeqMask)) {
      break;
    }
    w = slot.end;
    // Re-arming the tag readmits the writer of the next round through this
    // slot; the release pairs with that writer's acquire spin.
    slot.tag.store((next_seq_ + slot_mask_ + 1) & kSeqMask,
                   std::memory_order_release);
    ++next_seq_;
    advanced = true;
  }
  if (advanced) watermark_.store(w, std::memory_order_release);
  return advanced;
}

bool LogManager::TryAdvanceWatermark() {
  if (!publish_latch_.TryAcquire()) return false;
  const bool advanced = AdvanceWatermarkLocked();
  publish_latch_.Release();
  return advanced;
}

void LogManager::EmitToSink(Lsn from, Lsn to) {
  if (!options_.flush_sink) return;
  const size_t cap = options_.buffer_bytes;
  while (from < to) {
    const size_t pos = static_cast<size_t>(from % cap);
    const size_t len = static_cast<size_t>(
        std::min<uint64_t>(to - from, cap - pos));
    options_.flush_sink(ring_.get() + pos, len, from);
    from += len;
  }
}

bool LogManager::TryTakeRole() {
  return !role_.load(std::memory_order_relaxed) &&
         !role_.exchange(true, std::memory_order_acquire);
}

void LogManager::Enqueue(DeferredAck* ack, uint32_t state) {
  ack->state.store(state, std::memory_order_relaxed);
  ack->next = incoming_.load(std::memory_order_relaxed);
  while (!incoming_.compare_exchange_weak(ack->next, ack,
                                          std::memory_order_seq_cst,
                                          std::memory_order_relaxed)) {
  }
}

// A committer first applies the accumulation rule: on a device slower than
// the committers' time between commits, a leader that starts its pass at
// once splits the committers into two cohorts that alternate passes. So it
// waits for the committers the previous pass saw (`cohort_`) to come back
// and queue — only while a pass costs more than a committer's time between
// commits, and never longer than that time. With no device, never.
void LogManager::LeadPass(bool committer) {
  const uint64_t budget = gap_cycles_;
  if (committer && cohort_ > 1 &&
      pass_cycles_.load(std::memory_order_relaxed) > budget) {
    const uint64_t t0 = RdCycles();
    while (1 + SettleAcks(/*shutdown=*/false) < cohort_ &&
           RdCycles() - t0 < budget) {
      std::this_thread::yield();
    }
    if (ThreadProfile* p = ThreadProfile::Current()) {
      p->AttributeBlocked(t0, RdCycles());
    }
  }
  const bool flushed = RunPass();
  const uint32_t waiting = SettleAcks(/*shutdown=*/false);
  // Only a committer's pass that hardened something sizes the cohort: the
  // background pass runs on a timer, out of step with the committers.
  if (committer && flushed) cohort_ = 1 + waiting;
  HandOffRole();
}

bool LogManager::RunPass() {
  publish_latch_.Acquire();
  AdvanceWatermarkLocked();
  publish_latch_.Release();
  const Lsn target = watermark_.load(std::memory_order_acquire);
  const Lsn from = durable_lsn_.load(std::memory_order_relaxed);
  if (target == from) return false;
  // The device leg — the sink, then the simulated latency as a sleep (the
  // write is DMA on real hardware) — counts as blocked time and feeds the
  // pass-time estimate. Durability advances only afterwards.
  const uint64_t t0 = RdCycles();
  EmitToSink(from, target);
  if (options_.simulated_io_delay_us > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.simulated_io_delay_us));
  }
  durable_lsn_.store(target, std::memory_order_release);
  flushes_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t t1 = RdCycles();
  if (ThreadProfile* p = ThreadProfile::Current()) p->AttributeBlocked(t0, t1);
  const uint64_t prev = pass_cycles_.load(std::memory_order_relaxed);
  pass_cycles_.store(prev - prev / 4 + (t1 - t0) / 4,
                     std::memory_order_relaxed);
  return true;
}

void LogManager::FoldGap(uint64_t gap_cycles) {
  if (gap_cycles == 0) return;
  // Clamped to twice the pass time, so an idle spell cannot swamp it.
  const uint64_t sample = std::min(
      gap_cycles, 2 * pass_cycles_.load(std::memory_order_relaxed));
  gap_cycles_ = gap_cycles_ - gap_cycles_ / 8 + sample / 8;
}

void LogManager::AbsorbIncoming() {
  DeferredAck* in = incoming_.exchange(nullptr, std::memory_order_acquire);
  while (in != nullptr) {
    DeferredAck* next = in->next;
    in->next = pending_;
    pending_ = in;
    FoldGap(std::exchange(in->gap_cycles, 0));
    in = next;
  }
}

uint32_t LogManager::SettleAcks(bool shutdown) {
  AbsorbIncoming();
  if (pending_ == nullptr) return 0;
  const Lsn durable = durable_lsn_.load(std::memory_order_relaxed);
  const uint64_t now = NowNanos();
  uint32_t waiting = 0;
  DeferredAck** pp = &pending_;
  while (*pp != nullptr) {
    DeferredAck* a = *pp;
    if (IsWaiting(a->state.load(std::memory_order_relaxed))) ++waiting;
    if (a->lsn <= durable || shutdown) {
      *pp = a->next;
      a->settle_ns = now;
      // kLost at shutdown: the dependency died with the log, and reporting
      // it committed would externalize state recovery will not reproduce.
      // After this swap the node belongs to its owner again.
      const uint32_t old = a->state.exchange(
          a->lsn <= durable ? DeferredAck::kDurable : DeferredAck::kLost,
          std::memory_order_acq_rel);
      WakeOwner(a, old);
    } else {
      pp = &a->next;
    }
  }
  return waiting;
}

void LogManager::HandOffRole() {
  for (;;) {
    // kLead hands the role (and this list) to a waiting owner left
    // uncovered; it loses only to a deadline owner giving up (re-linked).
    for (DeferredAck** pp = &pending_; *pp != nullptr; pp = &(*pp)->next) {
      DeferredAck* a = *pp;
      uint32_t s = a->state.load(std::memory_order_relaxed);
      if (!IsWaiting(s)) continue;
      *pp = a->next;
      if (a->state.compare_exchange_strong(s, DeferredAck::kLead,
                                           std::memory_order_acq_rel)) {
        WakeOwner(a, s);
        return;
      }
      *pp = a;
    }
    role_.store(false, std::memory_order_seq_cst);
    // A follower that queued after our last absorb re-checks the role after
    // its push; we re-check the queue: one of us picks it up.
    if (incoming_.load(std::memory_order_seq_cst) == nullptr ||
        !TryTakeRole()) {
      return;
    }
    SettleAcks(/*shutdown=*/false);
  }
}

void LogManager::FlusherLoop() {
  std::unique_lock<std::mutex> lk(flush_mu_);
  const auto base = std::chrono::microseconds(options_.flush_interval_us);
  // An idle flusher doubles its wait up to this cap: under load the
  // committers harden their own records, and a timer at flush cadence
  // would cost 20,000 wake-ups a second for nothing.
  const auto cap = std::max(base, std::chrono::microseconds(kMaxIdleWaitUs));
  auto interval = base;
  Lsn last_reserved = 0;
  while (!stop_) {
    flush_cv_.wait_for(lk, interval, [this] {
      return stop_ || kicked_.load(std::memory_order_relaxed);
    });
    if (stop_) break;
    lk.unlock();
    const bool kicked = kicked_.exchange(false, std::memory_order_acq_rel);
    // Pass only for what nobody waits on — a kick (ring backpressure, a
    // parked ack), queued acks, a tail idle since the last wake-up — never
    // to race a committer for the record it is about to harden itself.
    const Lsn reserved = reserved_lsn();
    const bool idle_tail = reserved == last_reserved && reserved > durable_lsn();
    last_reserved = reserved;
    const bool work = kicked || idle_tail ||
                      incoming_.load(std::memory_order_relaxed) != nullptr;
    if (work && TryTakeRole()) LeadPass(/*committer=*/false);
    interval = work ? base : std::min(interval * 2, cap);
    lk.lock();
  }
  lk.unlock();
  // Shutdown: wait out any running pass, harden what is published, settle
  // every queued ack (kLost past the durable LSN), and free the role.
  while (!TryTakeRole()) std::this_thread::yield();
  RunPass();
  SettleAcks(/*shutdown=*/true);
  role_.store(false, std::memory_order_release);
}

Lsn LogManager::reserved_lsn() const {
  const Lsn reserved =
      ticket_.load(std::memory_order_acquire) & kOffsetMask;
  return std::max(reserved, watermark_.load(std::memory_order_acquire));
}

LogStats LogManager::Stats() const {
  LogStats s;
  s.appended_bytes = watermark_.load(std::memory_order_relaxed);
  s.reserved_bytes = reserved_lsn();
  s.records = records_.load(std::memory_order_relaxed);
  s.flushes = flushes_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace slidb
