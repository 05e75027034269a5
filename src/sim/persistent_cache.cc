#include "sim/persistent_cache.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "obs/obs.h"
#include "util/fields.h"

namespace hydra::sim {
namespace {

namespace fs = std::filesystem;

// Entry file layout (all integers little-endian):
//   "HYRC"                      4 bytes  magic
//   version                     u32
//   key                         u64      (must match the filename)
//   payload_size                u64
//   payload                     payload_size bytes
//   checksum                    u64      FNV-1a 64 over the payload
// Any structural deviation — short file, magic/key mismatch, impossible
// size, checksum mismatch, undecodable payload — classifies the file as
// corrupt; a version we don't speak classifies it as stale.
constexpr char kMagic[4] = {'H', 'Y', 'R', 'C'};
// v2: RunResult gained its four many-core metrics. v1 entries are
// dropped as stale on recovery and recomputed.
// v3: the bulk idle-skip knob left SimConfig and its hash, so every
// cache key moved; v2 entries are dropped as stale.
// v4: a tile sizes its core's memory latency by f_nominal rather than
// core.nominal_frequency_hz, so a result stored under a config where the
// two differ is wrong; v3 entries are dropped as stale.
constexpr std::uint32_t kFormatVersion = 4;
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8;

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// `bytes` little-endian bytes of `v`.
void put_uint(std::string& out, std::uint64_t v, std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  }
}

// Bounds-checked little-endian reader; every getter degrades to a
// harmless default once `ok` drops, so decoding never reads out of
// bounds regardless of how mangled the input is.
struct Reader {
  std::string_view data;
  std::size_t pos = 0;
  bool ok = true;

  /// `bytes` little-endian bytes as an unsigned value.
  std::uint64_t uint(std::size_t bytes) {
    if (!ok || data.size() - pos < bytes) {
      ok = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < bytes; ++i) {
      v |= std::uint64_t{static_cast<unsigned char>(data[pos + i])} << (8 * i);
    }
    pos += bytes;
    return v;
  }
  std::uint64_t u64() { return uint(8); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(uint(4)); }
  double f64() { return std::bit_cast<double>(u64()); }

  std::string str() {
    const std::uint64_t len = u64();
    if (!ok || len > data.size() - pos) {
      ok = false;
      return {};
    }
    std::string s(data.substr(pos, static_cast<std::size_t>(len)));
    pos += static_cast<std::size_t>(len);
    return s;
  }
};

// Fan-out of the key space on disk: `key` lives in shard key % kShards.
constexpr std::uint64_t kShards = 16;

/// "shard-NN", the directory of shard `s`.
std::string shard_name(std::uint64_t s) {
  return (s < 10 ? "shard-0" : "shard-") + std::to_string(s);
}

std::string hex16(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = digits[v & 0xfu];
    v >>= 4;
  }
  return s;
}

bool parse_hex16(std::string_view s, std::uint64_t& out) {
  if (s.size() != 16) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  out = v;
  return true;
}

/// Owns an open file descriptor.
struct FileDescriptor {
  int fd = -1;
  explicit FileDescriptor(int f) : fd(f) {}
  FileDescriptor(const FileDescriptor&) = delete;
  FileDescriptor& operator=(const FileDescriptor&) = delete;
  ~FileDescriptor() {
    if (fd >= 0) ::close(fd);
  }
};

/// Reads all of `p` into `out` through one open and, if `mtime_ns` is
/// given, takes the modification time (ns since the epoch) from that
/// open's fstat, so a census costs one open per entry and no further
/// stat. False if the file cannot be opened or read.
bool read_file(const fs::path& p, std::string& out,
               std::int64_t* mtime_ns = nullptr) {
  const FileDescriptor file(::open(p.c_str(), O_RDONLY | O_CLOEXEC));
  struct stat st {};
  if (file.fd < 0 || ::fstat(file.fd, &st) != 0) return false;
  if (mtime_ns != nullptr) {
    *mtime_ns = static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1'000'000'000 +
                st.st_mtim.tv_nsec;
  }
  // One byte of slack lets the read that sees end-of-file end the loop
  // without growing the buffer.
  out.resize(static_cast<std::size_t>(std::max<off_t>(st.st_size, 0)) + 1);
  std::size_t got = 0;
  for (;;) {
    if (got == out.size()) out.resize(2 * out.size());
    const ssize_t n = ::read(file.fd, out.data() + got, out.size() - got);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    got += static_cast<std::size_t>(n);
  }
  out.resize(got);
  return true;
}

enum class FileStatus { kOk, kCorrupt, kStale };

struct ParsedEntry {
  FileStatus status = FileStatus::kCorrupt;
  std::uint64_t checksum = 0;
  std::string payload;
  std::uint64_t bytes = 0;     ///< file size, from the read
  std::int64_t mtime_ns = 0;   ///< modification time, from the same open
};

ParsedEntry parse_entry_file(const fs::path& p, std::uint64_t expected_key) {
  ParsedEntry out;
  std::string raw;
  if (!read_file(p, raw, &out.mtime_ns)) return out;
  out.bytes = raw.size();
  if (raw.size() < kHeaderBytes + 8) return out;
  if (std::memcmp(raw.data(), kMagic, sizeof(kMagic)) != 0) return out;
  Reader r{std::string_view(raw), sizeof(kMagic), true};
  const std::uint32_t version = r.u32();
  const std::uint64_t key = r.u64();
  const std::uint64_t payload_size = r.u64();
  if (!r.ok) return out;
  if (version != kFormatVersion) {
    // Structurally a store entry, just from another era of the format.
    out.status = FileStatus::kStale;
    return out;
  }
  if (key != expected_key) return out;
  if (payload_size != raw.size() - kHeaderBytes - 8) return out;
  const std::string_view payload(raw.data() + kHeaderBytes,
                                 static_cast<std::size_t>(payload_size));
  r.pos = kHeaderBytes + static_cast<std::size_t>(payload_size);
  const std::uint64_t checksum = r.u64();
  if (!r.ok || fnv1a64(payload) != checksum) return out;
  out.status = FileStatus::kOk;
  out.checksum = checksum;
  out.payload.assign(payload);
  return out;
}

std::uint64_t entry_key_of(const fs::path& p, bool& ok) {
  std::uint64_t key = 0;
  ok = p.extension() == ".run" && parse_hex16(p.stem().string(), key);
  return key;
}

}  // namespace

// The payload is RunResult's fields in visit order, by type: strings
// length-prefixed, counts as u64, doubles as their exact bits.
std::string serialize_run_result(const RunResult& r) {
  std::string out;
  out.reserve(256);
  util::ByteSink sink{out};
  util::encode_fields(sink, r);
  return out;
}

bool deserialize_run_result(std::string_view payload, RunResult& out) {
  Reader r{payload, 0, true};
  util::decode_fields(r, out);
  return r.ok && r.pos == payload.size();
}

PersistentRunCache::PersistentRunCache(Options opts)
    : opts_(std::move(opts)) {
  if (opts_.dir.empty()) {
    throw std::runtime_error("persistent cache: empty directory");
  }
  const util::LockGuard lock(mu_);
  recover_locked();
}

fs::path PersistentRunCache::shard_dir(std::uint64_t key) const {
  return fs::path(opts_.dir) / shard_name(key % kShards);
}

fs::path PersistentRunCache::entry_path(std::uint64_t key) const {
  return shard_dir(key) / (hex16(key) + ".run");
}

void PersistentRunCache::recover_locked() {
  static const obs::Counter recoveries =
      obs::metrics().counter("cache.disk_recoveries");
  recoveries.add();
  std::error_code ec;
  fs::create_directories(opts_.dir, ec);
  fs::create_directories(fs::path(opts_.dir) / "quarantine", ec);
  for (std::uint64_t s = 0; s < kShards; ++s) {
    fs::create_directories(fs::path(opts_.dir) / shard_name(s), ec);
  }
  // Probe writability up front so a bad directory fails loudly at open,
  // not silently per save.
  {
    const fs::path probe = fs::path(opts_.dir) / ".probe.tmp";
    std::ofstream out(probe, std::ios::binary | std::ios::trunc);
    out << "ok";
    out.close();
    if (!out.good()) {
      throw std::runtime_error("persistent cache: directory not writable: " +
                               opts_.dir);
    }
    fs::remove(probe, ec);
  }

  // Census of the shards: delete abandoned temp files, validate every
  // entry, quarantine anything corrupt, drop anything stale. Survivors
  // are LRU-ordered by file modification time (oldest = first evicted).
  struct Found {
    std::uint64_t key;
    IndexEntry entry;
    std::int64_t mtime_ns;
  };
  std::vector<Found> found;
  for (std::uint64_t s = 0; s < kShards; ++s) {
    const fs::path dir = fs::path(opts_.dir) / shard_name(s);
    for (const auto& de : fs::directory_iterator(dir, ec)) {
      const fs::path p = de.path();
      if (p.extension() == ".tmp" ||
          p.filename().string().find(".tmp") != std::string::npos) {
        fs::remove(p, ec);
        ++stats_.tmp_removed;
        continue;
      }
      bool name_ok = false;
      const std::uint64_t key = entry_key_of(p, name_ok);
      if (!name_ok) {
        quarantine_locked(key, p);
        continue;
      }
      const ParsedEntry parsed = parse_entry_file(p, key);
      if (parsed.status == FileStatus::kStale) {
        fs::remove(p, ec);
        ++stats_.stale;
        continue;
      }
      if (parsed.status == FileStatus::kCorrupt) {
        quarantine_locked(key, p);
        continue;
      }
      Found f;
      f.key = key;
      f.entry.path = p;
      f.entry.bytes = parsed.bytes;
      f.entry.checksum = parsed.checksum;
      f.mtime_ns = parsed.mtime_ns;
      found.push_back(std::move(f));
    }
  }
  std::sort(found.begin(), found.end(),
            [](const Found& a, const Found& b) {
              if (a.mtime_ns != b.mtime_ns) return a.mtime_ns < b.mtime_ns;
              return a.key < b.key;
            });
  index_.clear();
  total_bytes_ = 0;
  for (Found& f : found) {
    f.entry.lru_tick = ++lru_clock_;
    total_bytes_ += f.entry.bytes;
    index_.emplace(f.key, std::move(f.entry));
    ++stats_.recovered;
  }

  // The journal's recovery job: detect lost publishes. Entries are
  // self-validating, so the journal is not what makes a publish durable
  // — but a `P` intent whose key neither survived the census nor has a
  // later deliberate-removal (`E`) record means a crash or disk fault
  // ate a committed result, and that deserves a counter rather than a
  // silent recompute. A torn final line (killed mid-append) simply
  // fails the parse and is skipped. Afterwards the journal is compacted
  // to the surviving index so it cannot grow without bound.
  std::string journal;
  {
    static const obs::Counter lost =
        obs::metrics().counter("cache.disk_lost_publishes");
    if (!read_file(fs::path(opts_.dir) / "manifest.log", journal)) {
      journal.clear();  // missing or unreadable: nothing to replay
    }
    std::map<std::uint64_t, bool> last_intent_is_publish;
    std::string_view rest(journal);
    while (!rest.empty()) {
      const std::size_t nl = rest.find('\n');
      const std::string_view v = rest.substr(0, nl);
      rest.remove_prefix(nl == std::string_view::npos ? rest.size() : nl + 1);
      std::uint64_t key = 0;
      std::uint64_t checksum = 0;
      if (v.size() >= 35 && v[0] == 'P' && v[1] == ' ' &&
          parse_hex16(v.substr(2, 16), key) && v[18] == ' ' &&
          parse_hex16(v.substr(19, 16), checksum)) {
        last_intent_is_publish[key] = true;
      } else if (v.size() >= 18 && v[0] == 'E' && v[1] == ' ' &&
                 parse_hex16(v.substr(2, 16), key)) {
        last_intent_is_publish[key] = false;
      }
    }
    for (const auto& [key, published] : last_intent_is_publish) {
      if (published && index_.find(key) == index_.end()) {
        ++stats_.lost_publishes;
        lost.add();
      }
    }
  }
  compact_manifest_locked(journal);
  enforce_capacity_locked();
}

void PersistentRunCache::quarantine_locked(std::uint64_t key,
                                           const fs::path& p) {
  static const obs::Counter quarantined =
      obs::metrics().counter("cache.disk_quarantined");
  quarantined.add();
  ++stats_.corrupt;
  std::error_code ec;
  const fs::path qdir = fs::path(opts_.dir) / "quarantine";
  fs::create_directories(qdir, ec);
  const fs::path dest =
      qdir / (hex16(key) + "-" + std::to_string(++quarantine_seq_) + ".bad");
  fs::rename(p, dest, ec);
  if (ec) {
    // Cross-device or exotic failure: fall back to copy+remove; if even
    // that fails the file must at least stop being servable.
    fs::copy_file(p, dest, fs::copy_options::overwrite_existing, ec);
    fs::remove(p, ec);
  }
}

void PersistentRunCache::append_manifest_locked(char op, std::uint64_t key,
                                                std::uint64_t checksum) {
  // flush() hands the line to the OS, which survives process death
  // (SIGKILL) — the crash model this store defends against. Media-level
  // power-loss durability would need fsync and is out of scope; the
  // journal only detects losses, the checksummed entries are the truth.
  std::ofstream out(fs::path(opts_.dir) / "manifest.log",
                    std::ios::app | std::ios::binary);
  out << op << ' ' << hex16(key);
  if (op == 'P') out << ' ' << hex16(checksum);
  out << '\n';
  out.flush();
}

void PersistentRunCache::compact_manifest_locked(std::string_view journal) {
  std::string compact;
  compact.reserve(36 * index_.size());
  for (const auto& [key, entry] : index_) {
    compact += "P " + hex16(key) + " " + hex16(entry.checksum) + "\n";
  }
  if (compact == journal) return;  // already compact: leave the file be
  const fs::path manifest = fs::path(opts_.dir) / "manifest.log";
  const fs::path tmp = fs::path(opts_.dir) / "manifest.log.tmp";
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    out.write(compact.data(), static_cast<std::streamsize>(compact.size()));
    out.flush();
    if (!out.good()) return;  // keep the old manifest rather than lose it
  }
  std::error_code ec;
  fs::rename(tmp, manifest, ec);
}

std::shared_ptr<const RunResult> PersistentRunCache::load(std::uint64_t key) {
  fs::path path;
  {
    const util::LockGuard lock(mu_);
    const auto it = index_.find(key);
    if (it == index_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    path = it->second.path;
  }

  // The file read — the expensive part — runs outside the lock so shard
  // reads from concurrent pool workers parallelise instead of
  // serialising on the index mutex (and a slow disk cannot stall
  // stats() callers). The entry may be evicted while we read; the
  // verdicts below revalidate against the index before mutating it.
  const ParsedEntry parsed = parse_entry_file(path, key);
  auto result = std::make_shared<RunResult>();
  const bool verified = parsed.status == FileStatus::kOk &&
                        deserialize_run_result(parsed.payload, *result);

  const util::LockGuard lock(mu_);
  const auto it = index_.find(key);
  if (verified) {
    // A concurrent eviction may have dropped the entry mid-read; the
    // bytes we already verified are still a correct answer.
    if (it != index_.end()) it->second.lru_tick = ++lru_clock_;
    ++stats_.hits;
    static const obs::Counter hits = obs::metrics().counter("cache.disk_hits");
    hits.add();
    return result;
  }
  if (it != index_.end()) {
    if (parsed.status == FileStatus::kStale) {
      std::error_code ec;
      fs::remove(it->second.path, ec);
      ++stats_.stale;
    } else {
      // The entry rotted (or was tampered with) after we indexed it.
      quarantine_locked(key, it->second.path);
    }
    append_manifest_locked('E', key);  // deliberate removal, not a loss
    total_bytes_ -= std::min(total_bytes_, it->second.bytes);
    index_.erase(it);
  }
  ++stats_.misses;
  return nullptr;
}

void PersistentRunCache::save(std::uint64_t key, const RunResult& result) {
  {
    const util::LockGuard lock(mu_);
    if (index_.count(key) != 0) return;  // identical by construction (FNV key)
  }

  // Serialization and the temp-file write — the bulk of the work — run
  // outside the lock so concurrent workers spill to their shards in
  // parallel; only the journal append, rename and index update
  // serialise. Temp names come from an atomic sequence, so two racing
  // saves of the same key never collide.
  const std::string payload = serialize_run_result(result);
  const std::uint64_t checksum = fnv1a64(payload);
  std::string blob;
  blob.reserve(kHeaderBytes + payload.size() + 8);
  blob.append(kMagic, sizeof(kMagic));
  put_uint(blob, kFormatVersion, 4);
  put_uint(blob, key, 8);
  put_uint(blob, payload.size(), 8);
  blob.append(payload);
  put_uint(blob, checksum, 8);

  const fs::path final_path = entry_path(key);
  const fs::path tmp_path =
      shard_dir(key) /
      (hex16(key) + ".tmp" +
       std::to_string(tmp_seq_.fetch_add(1, std::memory_order_relaxed) + 1));
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    out.flush();
    if (!out.good()) {
      // Contained: the run stays memory-only; disk pressure or a broken
      // volume must never take down the sweep.
      std::error_code ec;
      fs::remove(tmp_path, ec);
      return;
    }
  }

  const util::LockGuard lock(mu_);
  std::error_code ec;
  if (index_.count(key) != 0) {
    // A racing save published the same (bit-identical) entry first.
    fs::remove(tmp_path, ec);
    return;
  }
  // Intent is on record before the entry becomes visible, so recovery
  // can tell a lost publish from a run that never finished.
  append_manifest_locked('P', key, checksum);
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    fs::remove(tmp_path, ec);
    return;
  }
  IndexEntry entry;
  entry.path = final_path;
  entry.bytes = blob.size();
  entry.checksum = checksum;
  entry.lru_tick = ++lru_clock_;
  total_bytes_ += entry.bytes;
  index_.insert_or_assign(key, std::move(entry));
  ++stats_.stores;
  static const obs::Counter stores =
      obs::metrics().counter("cache.disk_stores");
  stores.add();
  enforce_capacity_locked();
}

void PersistentRunCache::enforce_capacity_locked() {
  while (total_bytes_ > opts_.max_bytes && !index_.empty()) {
    auto victim = index_.begin();
    for (auto it = index_.begin(); it != index_.end(); ++it) {
      if (it->second.lru_tick < victim->second.lru_tick) victim = it;
    }
    std::error_code ec;
    fs::remove(victim->second.path, ec);
    // Journal the removal so the next recovery reads this as a
    // deliberate eviction, not a lost publish.
    append_manifest_locked('E', victim->first);
    total_bytes_ -= std::min(total_bytes_, victim->second.bytes);
    index_.erase(victim);
    ++stats_.evictions;
  }
}

PersistentRunCache::Stats PersistentRunCache::stats() const {
  const util::LockGuard lock(mu_);
  return stats_;
}

std::size_t PersistentRunCache::entries() const {
  const util::LockGuard lock(mu_);
  return index_.size();
}

std::uint64_t PersistentRunCache::total_bytes() const {
  const util::LockGuard lock(mu_);
  return total_bytes_;
}

}  // namespace hydra::sim
