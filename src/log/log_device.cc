#include "src/log/log_device.h"

#include <dirent.h>
#include <fcntl.h>
#include <libgen.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>

#include "src/log/log_manager.h"
#include "src/stats/counters.h"

namespace slidb {

namespace {

/// Injected fsync failures (test seam). Decremented per fsync while > 0;
/// the affected sync reports failure without touching the file.
std::atomic<int> g_sync_failures{0};

/// fsync through the injection seam. Returns 0 on success, -1 on (real or
/// injected) failure.
int MaybeFsync(int fd) {
  int pending = g_sync_failures.load(std::memory_order_relaxed);
  while (pending > 0) {
    if (g_sync_failures.compare_exchange_weak(pending, pending - 1,
                                              std::memory_order_relaxed)) {
      errno = EIO;
      return -1;
    }
  }
  return ::fsync(fd);
}

/// fsync the parent directory of `path` (durable directory entry after
/// create/rename/unlink). Returns 0 on success.
int SyncParentDir(const std::string& path) {
  std::string dir_path = path;  // dirname may modify its argument
  const char* dir = ::dirname(dir_path.data());
  const int dir_fd = ::open(dir, O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) return -1;
  const int rc = MaybeFsync(dir_fd);
  ::close(dir_fd);
  return rc;
}

}  // namespace

int SetLogSyncFailureInjection(int count) {
  return g_sync_failures.exchange(count, std::memory_order_relaxed);
}

// ---- InMemoryLogDevice ------------------------------------------------------

Status InMemoryLogDevice::Append(const uint8_t* data, size_t len, Lsn lsn) {
  std::lock_guard<std::mutex> g(mu_);
  if (lsn != bytes_.size() && !crashed_) {
    return Status::InvalidArgument("non-contiguous log append");
  }
  if (crashed_) return Status::OK();  // device is gone; bytes vanish
  const uint64_t room = accept_limit_ - bytes_.size();
  const size_t take = static_cast<size_t>(std::min<uint64_t>(len, room));
  bytes_.insert(bytes_.end(), data, data + take);
  if (take < len) crashed_ = true;  // torn write: prefix landed, rest lost
  return Status::OK();
}

uint64_t InMemoryLogDevice::DurableBytes() const {
  std::lock_guard<std::mutex> g(mu_);
  return bytes_.size();
}

Status InMemoryLogDevice::ReadAll(std::vector<uint8_t>* out) const {
  std::lock_guard<std::mutex> g(mu_);
  *out = bytes_;
  return Status::OK();
}

void InMemoryLogDevice::CrashAfter(uint64_t extra_bytes) {
  std::lock_guard<std::mutex> g(mu_);
  accept_limit_ = bytes_.size() + extra_bytes;
}

bool InMemoryLogDevice::crashed() const {
  std::lock_guard<std::mutex> g(mu_);
  return crashed_;
}

// ---- SegmentedLogDevice -----------------------------------------------------

namespace {

constexpr uint64_t kSegMagic = 0x4745534244494C53ULL;  // "SLIDBSEG" LE
constexpr uint32_t kSegFormatVersion = 1;
constexpr uint32_t kSegHeaderSize = 64;
constexpr uint64_t kSegFlagTentative = 1;
/// Byte offset of `flags` inside SegmentHeader (magic + version +
/// header_size + generation + seg_no + seg_payload).
constexpr size_t kSegFlagsOffset = 8 + 4 + 4 + 8 + 8 + 8;
constexpr size_t kSegTrimOffset = kSegFlagsOffset + 8;

struct SegmentHeader {
  uint64_t magic;
  uint32_t version;
  uint32_t header_size;
  uint64_t generation;
  uint64_t seg_no;
  uint64_t seg_payload;  ///< payload capacity per segment of this generation
  uint64_t flags;        ///< kSegFlagTentative until the gen is authoritative
  uint64_t trim_lsn;     ///< stream resumes here when predecessors recycled
  uint64_t reserved;     ///< zero
};
static_assert(sizeof(SegmentHeader) == kSegHeaderSize);
static_assert(offsetof(SegmentHeader, flags) == kSegFlagsOffset);
static_assert(offsetof(SegmentHeader, trim_lsn) == kSegTrimOffset);

/// gen → present segment numbers, from a directory scan for
/// `<prefix>.gen<G>.seg<N>` names. Stale `.tmp` files are reported
/// separately (they are creation leftovers, never part of a log).
struct SegmentListing {
  std::map<uint64_t, std::set<uint64_t>> gens;
  std::vector<std::string> tmp_files;  ///< full paths
};

Status ListSegments(const std::string& prefix, SegmentListing* out) {
  std::string dir_copy = prefix;
  std::string base_copy = prefix;
  const std::string dir = ::dirname(dir_copy.data());
  const std::string base = ::basename(base_copy.data());
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return Status::IoError("opendir: " + dir);
  for (struct dirent* e = ::readdir(d); e != nullptr; e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.size() <= base.size() || name.compare(0, base.size(), base) != 0) {
      continue;
    }
    unsigned long long gen = 0, seg = 0;
    int consumed = 0;
    const char* rest = name.c_str() + base.size();
    if (std::sscanf(rest, ".gen%llu.seg%llu%n", &gen, &seg, &consumed) != 2) {
      continue;
    }
    const char* tail = rest + consumed;
    if (*tail == '\0') {
      out->gens[gen].insert(seg);
    } else if (std::strcmp(tail, ".tmp") == 0) {
      out->tmp_files.push_back(dir + "/" + name);
    }
  }
  ::closedir(d);
  return Status::OK();
}

Status ReadSegmentHeader(const std::string& path, SegmentHeader* hdr,
                         uint64_t* file_size) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError("open segment: " + path);
  uint8_t buf[kSegHeaderSize];
  size_t got = 0;
  while (got < sizeof(buf)) {
    const ssize_t n = ::read(fd, buf + got, sizeof(buf) - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<size_t>(n);
  }
  const off_t end = ::lseek(fd, 0, SEEK_END);
  ::close(fd);
  if (got < sizeof(buf) || end < 0) {
    return Status::Corruption("short segment header: " + path);
  }
  std::memcpy(hdr, buf, sizeof(*hdr));
  if (hdr->magic != kSegMagic || hdr->version != kSegFormatVersion ||
      hdr->header_size != kSegHeaderSize || hdr->seg_payload == 0) {
    return Status::Corruption("bad segment header: " + path);
  }
  *file_size = static_cast<uint64_t>(end);
  return Status::OK();
}

std::string SegPathFor(const std::string& prefix, uint64_t gen,
                       uint64_t seg_no) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), ".gen%" PRIu64 ".seg%" PRIu64, gen, seg_no);
  return prefix + buf;
}

/// Read a whole segment file, header included.
Status ReadWholeFile(const std::string& path, std::vector<uint8_t>* out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError("open segment for read: " + path);
  out->clear();
  uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::IoError("read segment: " + path);
    }
    if (n == 0) break;
    out->insert(out->end(), buf, buf + n);
  }
  ::close(fd);
  return Status::OK();
}

/// The generation a recovery should read: the newest one that is
/// authoritative — seg0 absent (recycled: authority by construction) or
/// seg0's tentative flag clear. Returns false when none qualifies.
bool PickReadGeneration(const std::string& prefix, const SegmentListing& ls,
                        uint64_t* gen_out) {
  for (auto it = ls.gens.rbegin(); it != ls.gens.rend(); ++it) {
    if (it->second.empty()) continue;
    const uint64_t lowest = *it->second.begin();
    if (lowest != 0) {
      *gen_out = it->first;  // recycled ⇒ was authoritative
      return true;
    }
    SegmentHeader hdr;
    uint64_t size = 0;
    if (!ReadSegmentHeader(SegPathFor(prefix, it->first, 0), &hdr, &size)
             .ok()) {
      continue;  // unreadable seg0: treat the whole generation as dead
    }
    if ((hdr.flags & kSegFlagTentative) == 0) {
      *gen_out = it->first;
      return true;
    }
  }
  return false;
}

}  // namespace

Status SegmentedLogDevice::Open(const std::string& prefix,
                                uint64_t segment_bytes,
                                std::unique_ptr<SegmentedLogDevice>* out) {
  if (segment_bytes == 0) {
    return Status::InvalidArgument("segment_bytes must be nonzero");
  }
  SegmentListing ls;
  SLIDB_RETURN_NOT_OK(ListSegments(prefix, &ls));
  auto dev = std::unique_ptr<SegmentedLogDevice>(
      new SegmentedLogDevice(prefix, segment_bytes));
  const uint64_t max_gen = ls.gens.empty() ? 0 : ls.gens.rbegin()->first;
  dev->write_gen_ = ls.gens.empty() ? 0 : max_gen + 1;
  // A generation that succeeds ANY prior generation is tentative until the
  // recovered state provably lives in it (MarkGenerationAuthoritative).
  dev->tentative_ = !ls.gens.empty();
  *out = std::move(dev);
  return Status::OK();
}

SegmentedLogDevice::~SegmentedLogDevice() {
  if (cur_fd_ < 0) return;
  // Every append synced before it returned, so there is no tail to harden
  // here. A poisoned device already reported its failure through Append.
  if (::close(cur_fd_) != 0 && !poisoned()) {
    CountEvent(Counter::kLogSyncFailures);
    std::fprintf(stderr, "slidb: log close failed (%s)\n", prefix_.c_str());
    std::abort();
  }
}

Status SegmentedLogDevice::Poison(const char* what) {
  poisoned_.store(true, std::memory_order_release);
  CountEvent(Counter::kLogSyncFailures);
  return Status::IoError(std::string(what) + ": " + prefix_);
}

std::string SegmentedLogDevice::SegPath(uint64_t gen, uint64_t seg_no) const {
  return SegPathFor(prefix_, gen, seg_no);
}

Status SegmentedLogDevice::OpenSegment(uint64_t seg_no) {
  // Write-new-then-rename: the header lands durably in a temp file first,
  // so a crash mid-creation never leaves a half-written segment under a
  // live name — recovery either sees the complete previous state or the
  // complete new segment.
  const std::string path = SegPath(write_gen_, seg_no);
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return Poison("create segment");
  SegmentHeader hdr{};
  hdr.magic = kSegMagic;
  hdr.version = kSegFormatVersion;
  hdr.header_size = kSegHeaderSize;
  hdr.generation = write_gen_;
  hdr.seg_no = seg_no;
  hdr.seg_payload = seg_payload_;
  hdr.flags = (tentative() && seg_no == 0) ? kSegFlagTentative : 0;
  size_t done = 0;
  const uint8_t* bytes = reinterpret_cast<const uint8_t*>(&hdr);
  while (done < sizeof(hdr)) {
    const ssize_t n = ::pwrite(fd, bytes + done, sizeof(hdr) - done,
                               static_cast<off_t>(done));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      ::close(fd);
      return Poison("write segment header");
    }
    done += static_cast<size_t>(n);
  }
  if (MaybeFsync(fd) != 0) {
    ::close(fd);
    return Poison("fsync new segment");
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::close(fd);
    return Poison("rename segment into place");
  }
  if (SyncParentDir(path) != 0) {
    ::close(fd);
    return Poison("fsync log directory");
  }
  if (cur_fd_ >= 0) ::close(cur_fd_);
  cur_fd_ = fd;  // still the same inode after rename
  cur_seg_ = seg_no;
  CountEvent(Counter::kLogSegmentsCreated);
  return Status::OK();
}

Status SegmentedLogDevice::PrepareGeneration() {
  // First write of the new generation. Stale generations above the one
  // recovery read (failed recovery attempts) and creation leftovers are
  // deleted now, not at Open, so a crash any time before this point leaves
  // every previous log intact.
  SegmentListing ls;
  SLIDB_RETURN_NOT_OK(ListSegments(prefix_, &ls));
  uint64_t keep_gen = 0;
  const bool have_keep = PickReadGeneration(prefix_, ls, &keep_gen);
  for (const auto& [gen, segs] : ls.gens) {
    if (gen >= write_gen_) continue;        // defensive; cannot exist yet
    if (have_keep && gen == keep_gen) continue;
    for (const uint64_t seg : segs) {
      (void)::unlink(SegPathFor(prefix_, gen, seg).c_str());
    }
  }
  for (const std::string& tmp : ls.tmp_files) (void)::unlink(tmp.c_str());
  prepared_ = true;
  return OpenSegment(0);
}

Status SegmentedLogDevice::Append(const uint8_t* data, size_t len, Lsn lsn) {
  if (poisoned()) return Status::IoError("log device poisoned: " + prefix_);
  if (!prepared_) SLIDB_RETURN_NOT_OK(PrepareGeneration());
  size_t done = 0;
  while (done < len) {
    const Lsn at = lsn + done;
    const uint64_t seg = at / seg_payload_;
    if (seg != cur_seg_) {
      // Rotation: the finished segment's bytes are made durable before the
      // next segment opens, so the durable stream can never have a hole a
      // later segment's bytes paper over.
      if (MaybeFsync(cur_fd_) != 0) return Poison("fsync rotated segment");
      SLIDB_RETURN_NOT_OK(OpenSegment(seg));
    }
    const uint64_t seg_off = at % seg_payload_;
    const size_t chunk = static_cast<size_t>(
        std::min<uint64_t>(len - done, seg_payload_ - seg_off));
    size_t wrote = 0;
    while (wrote < chunk) {
      const ssize_t n =
          ::pwrite(cur_fd_, data + done + wrote, chunk - wrote,
                   static_cast<off_t>(kSegHeaderSize + seg_off + wrote));
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) return Poison("pwrite segment");
      wrote += static_cast<size_t>(n);
    }
    done += chunk;
  }
  if (MaybeFsync(cur_fd_) != 0) return Poison("fsync segment");
  written_.store(std::max(written_.load(std::memory_order_relaxed),
                          static_cast<uint64_t>(lsn + len)),
                 std::memory_order_release);
  return Status::OK();
}

uint64_t SegmentedLogDevice::DurableBytes() const {
  return written_.load(std::memory_order_acquire);
}

Lsn SegmentedLogDevice::base_lsn() const {
  std::lock_guard<std::mutex> g(mu_);
  return std::max<Lsn>(base_seg_ * seg_payload_, trim_lsn_);
}

Status SegmentedLogDevice::ReadAll(std::vector<uint8_t>* out) const {
  out->clear();
  if (!prepared_) return Status::OK();  // nothing written by THIS device yet
  const uint64_t end = DurableBytes();
  uint64_t first_seg;
  Lsn trim;
  {
    std::lock_guard<std::mutex> g(mu_);
    first_seg = base_seg_;
    trim = trim_lsn_;
  }
  for (uint64_t seg = first_seg; seg * seg_payload_ < end; ++seg) {
    std::vector<uint8_t> file;
    SLIDB_RETURN_NOT_OK(ReadWholeFile(SegPath(write_gen_, seg), &file));
    if (file.size() < kSegHeaderSize) {
      return Status::Corruption("segment shorter than its header");
    }
    const uint64_t seg_start = seg * seg_payload_;
    const uint64_t want = std::min(end - seg_start, seg_payload_);
    const uint64_t have =
        std::min<uint64_t>(file.size() - kSegHeaderSize, want);
    out->insert(out->end(), file.begin() + kSegHeaderSize,
                file.begin() + static_cast<size_t>(kSegHeaderSize + have));
    if (have < want) break;  // torn tail: later bytes never landed
  }
  // The first kept segment's head below the trim LSN predates the last
  // recycle point; ReadAll's contract is "everything from base_lsn()".
  const Lsn start = first_seg * seg_payload_;
  if (trim > start) {
    const size_t skip =
        static_cast<size_t>(std::min<uint64_t>(trim - start, out->size()));
    out->erase(out->begin(), out->begin() + static_cast<ptrdiff_t>(skip));
  }
  return Status::OK();
}

void SegmentedLogDevice::RecycleBelow(Lsn lsn) {
  // Never recycle while tentative: until the opening checkpoint is marked
  // durable, the previous generation is still the source of truth and this
  // one may be discarded wholesale — deleting ITS segments early would
  // just complicate the fallback story.
  if (!prepared_ || tentative()) return;
  const uint64_t limit = std::min(lsn / seg_payload_, cur_seg_);
  std::lock_guard<std::mutex> g(mu_);
  if (limit <= base_seg_) return;
  // A record can straddle the recycled boundary, so the first KEPT segment
  // may begin mid-record — recovery must know where the parsable stream
  // resumes. Persist that trim LSN into the kept segment's header BEFORE
  // unlinking its predecessors: a crash between the two steps then only
  // means recovery reads a longer (still valid) stream. The segment is
  // opened by path, not through cur_fd_, because a log pass may rotate
  // (and close) the current fd concurrently.
  const Lsn trim = std::min<Lsn>(lsn, (limit + 1) * seg_payload_);
  bool trim_durable = false;
  const int fd = ::open(SegPath(write_gen_, limit).c_str(), O_WRONLY);
  if (fd >= 0) {
    ssize_t n;
    do {
      n = ::pwrite(fd, &trim, sizeof(trim),
                   static_cast<off_t>(kSegTrimOffset));
    } while (n < 0 && errno == EINTR);
    trim_durable =
        n == static_cast<ssize_t>(sizeof(trim)) && MaybeFsync(fd) == 0;
    ::close(fd);
  }
  if (!trim_durable) return;  // recycling is optional; keep everything
  for (uint64_t seg = base_seg_; seg < limit; ++seg) {
    if (::unlink(SegPath(write_gen_, seg).c_str()) == 0) {
      CountEvent(Counter::kLogSegmentsRecycled);
    }
  }
  base_seg_ = limit;
  trim_lsn_ = trim;
}

Status SegmentedLogDevice::MarkGenerationAuthoritative() {
  if (!tentative()) return Status::OK();
  if (poisoned()) return Status::IoError("log device poisoned: " + prefix_);
  // Nothing appended yet (the previous generation was empty or fully torn,
  // so recovery had nothing to re-anchor): force seg0 into existence so the
  // flag has somewhere to live. Without this the generation would stay
  // tentative and a later crash would fall back to the stale predecessor,
  // losing every commit made since.
  if (!prepared_) SLIDB_RETURN_NOT_OK(PrepareGeneration());
  // Flip seg0's tentative flag in place and sync it; only after the flag
  // is durably clear do the predecessor generations stop being needed.
  const std::string seg0 = SegPath(write_gen_, 0);
  const int fd = ::open(seg0.c_str(), O_WRONLY);
  if (fd < 0) return Poison("open seg0 for authority mark");
  const uint64_t clear = 0;
  ssize_t n;
  do {
    n = ::pwrite(fd, &clear, sizeof(clear),
                 static_cast<off_t>(kSegFlagsOffset));
  } while (n < 0 && errno == EINTR);
  if (n != static_cast<ssize_t>(sizeof(clear)) || MaybeFsync(fd) != 0) {
    ::close(fd);
    return Poison("persist authority mark");
  }
  ::close(fd);
  tentative_.store(false, std::memory_order_release);
  SegmentListing ls;
  SLIDB_RETURN_NOT_OK(ListSegments(prefix_, &ls));
  for (const auto& [gen, segs] : ls.gens) {
    if (gen >= write_gen_) continue;
    for (const uint64_t seg : segs) {
      if (::unlink(SegPathFor(prefix_, gen, seg).c_str()) == 0) {
        CountEvent(Counter::kLogSegmentsRecycled);
      }
    }
  }
  (void)SyncParentDir(prefix_);
  return Status::OK();
}

Status SegmentedLogDevice::ReadLog(const std::string& prefix,
                                   std::vector<uint8_t>* out, Lsn* base_lsn,
                                   uint64_t* generation) {
  out->clear();
  *base_lsn = 0;
  if (generation != nullptr) *generation = kLsnNone;
  SegmentListing ls;
  SLIDB_RETURN_NOT_OK(ListSegments(prefix, &ls));
  uint64_t gen = 0;
  if (!PickReadGeneration(prefix, ls, &gen)) {
    return Status::OK();  // no authoritative generation: empty stream
  }
  if (generation != nullptr) *generation = gen;
  const std::set<uint64_t>& segs = ls.gens.at(gen);
  const uint64_t first_seg = *segs.begin();
  uint64_t seg_payload = 0;
  uint64_t first_skip = 0;
  for (uint64_t seg = first_seg;; ++seg) {
    if (segs.count(seg) == 0) break;  // contiguous run ends: stream ends
    const std::string path = SegPathFor(prefix, gen, seg);
    SegmentHeader hdr;
    uint64_t file_size = 0;
    const Status st = ReadSegmentHeader(path, &hdr, &file_size);
    if (!st.ok()) break;  // torn segment: the stream's valid prefix ends
    if (hdr.generation != gen || hdr.seg_no != seg) break;
    if (seg_payload == 0) {
      seg_payload = hdr.seg_payload;
      // Recycling may have trimmed the stream into this segment: its head
      // below trim_lsn predates the recycle point (possibly mid-record) —
      // the parsable stream resumes at the trim.
      const Lsn seg_start = first_seg * seg_payload;
      if (hdr.trim_lsn > seg_start) {
        first_skip = std::min<uint64_t>(hdr.trim_lsn - seg_start, seg_payload);
      }
      *base_lsn = seg_start + first_skip;
    } else if (hdr.seg_payload != seg_payload) {
      break;  // mixed capacities cannot come from one healthy generation
    }
    std::vector<uint8_t> file;
    if (!ReadWholeFile(path, &file).ok()) break;
    const uint64_t have = file.size() > kSegHeaderSize
                              ? std::min<uint64_t>(
                                    file.size() - kSegHeaderSize, seg_payload)
                              : 0;
    const uint64_t from = seg == first_seg ? std::min(first_skip, have) : 0;
    out->insert(out->end(),
                file.begin() + static_cast<size_t>(kSegHeaderSize + from),
                file.begin() + static_cast<size_t>(kSegHeaderSize + have));
    if (have < seg_payload) break;  // not full: nothing can follow it
  }
  return Status::OK();
}

// ---- flush_sink adapter -----------------------------------------------------

void AttachLogDevice(LogOptions* options, LogDevice* device) {
  options->flush_sink = [device](const uint8_t* data, size_t len, Lsn lsn) {
    const Status st = device->Append(data, len, lsn);
    if (!st.ok()) {
      // Fail-stop: durable_lsn advances when this sink returns, so
      // returning after a REPORTED write failure (disk full, EIO) would
      // tell committers their data is durable when it is not — silent,
      // unbounded loss. The crash model the recovery tests exercise is a
      // device that acks and then loses power (InMemoryLogDevice reports
      // OK while dropping bytes); an error status is the opposite of an
      // ack, and the classic WAL answer is to panic.
      std::fprintf(stderr, "slidb: log device write failed (%s); aborting\n",
                   st.message().c_str());
      std::abort();
    }
  };
}

}  // namespace slidb
