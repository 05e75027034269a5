// Crash-safe on-disk spill of the run cache.
//
// The expensive artifact of this codebase is a completed RunResult; the
// in-memory RunCache dedupes it within one process, and this store makes
// it durable across processes — the substrate the hydra_serve north-star
// needs ("content-hash admission into a sharded persistent run cache").
// A killed or crashed sweep restarts warm: every entry it managed to
// commit is served from disk, everything else is recomputed, and nothing
// corrupt is ever trusted.
//
// Durability model (DESIGN.md §13):
//   * Entries live one-file-per-run under `<dir>/shard-NN/<key>.run`,
//     in 16 shards by the low four bits of the FNV run key, so listings
//     stay short at serve scale.
//   * Each file is versioned and checksummed (FNV-1a over the payload);
//     writes go to a temp file in the same shard and are published with
//     an atomic rename, so readers never observe a half-written entry.
//   * A publish journal (`manifest.log`) records every publish intent
//     (`P <key> <checksum>`, appended before the rename) and every
//     deliberate removal (`E <key>`: eviction, stale drop, load-time
//     quarantine). Durability comes from the checksummed entries and
//     the atomic rename, NOT the journal; its recovery job is loss
//     detection — a publish intent with no surviving entry and no
//     removal record means a crash ate a publish, counted in
//     `lost_publishes` / `cache.disk_lost_publishes`. It is compacted
//     on open; a torn final line (killed mid-append) is tolerated.
//   * On open, leftover temp files are deleted and every entry is
//     structurally validated; anything corrupt is quarantined into
//     `<dir>/quarantine/` — never deleted (post-mortem evidence), never
//     served, never fatal. A corrupt entry simply becomes a recompute.
//   * Total size is bounded: past `max_bytes` the least-recently-used
//     entries are evicted, so disk pressure degrades hit rate, not
//     correctness.
//
// Thread-safe. The in-memory index is guarded by one mutex, but entry
// file reads and writes happen OUTSIDE it (with revalidation after
// reacquiring), so shard I/O from concurrent pool workers parallelises;
// only the index lookup/update and the rename serialise.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "sim/system.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace hydra::sim {

/// Serialize a RunResult to the store's portable binary payload (every
/// double bit-exact; strings length-prefixed). Exposed for tests.
std::string serialize_run_result(const RunResult& r);

/// Inverse of serialize_run_result. Returns false (leaving `out`
/// unspecified) on any structural problem — short buffer, trailing
/// bytes, bad lengths.
bool deserialize_run_result(std::string_view payload, RunResult& out);

class PersistentRunCache {
 public:
  struct Options {
    std::string dir;  ///< store root (created if absent)
    std::uint64_t max_bytes = 256ull << 20;  ///< LRU capacity bound
  };

  struct Stats {
    // Lifetime counters for this handle.
    std::uint64_t hits = 0;        ///< loads served (checksum verified)
    std::uint64_t misses = 0;      ///< loads with no entry on disk
    std::uint64_t stores = 0;      ///< entries published
    std::uint64_t corrupt = 0;     ///< entries quarantined (open + load)
    std::uint64_t stale = 0;       ///< version-mismatch entries dropped
    std::uint64_t evictions = 0;   ///< entries evicted by the size bound
    // Recovery census from open().
    std::uint64_t recovered = 0;     ///< valid entries found on open
    std::uint64_t tmp_removed = 0;   ///< abandoned temp files deleted
    std::uint64_t lost_publishes = 0;  ///< journal intents with no entry
  };

  /// Open (and if necessary create) the store at `opts.dir`, running
  /// crash recovery: delete temp files, quarantine corrupt entries,
  /// compact the manifest. Throws std::runtime_error when the directory
  /// cannot be created or is not writable.
  explicit PersistentRunCache(Options opts);

  /// Verified entry for `key`, or nullptr. A corrupt entry is
  /// quarantined and reported as a miss; a version-mismatched entry is
  /// deleted and reported as a miss.
  std::shared_ptr<const RunResult> load(std::uint64_t key);

  /// Durably publish `result` under `key` (temp file written outside
  /// the lock + journal append + atomic rename), then enforce the
  /// capacity bound. I/O errors are contained: a failed save is counted
  /// and the run simply stays memory-only.
  void save(std::uint64_t key, const RunResult& result);

  Stats stats() const;
  std::size_t entries() const;
  std::uint64_t total_bytes() const;
  const std::string& dir() const { return opts_.dir; }

 private:
  struct IndexEntry {
    std::filesystem::path path;
    std::uint64_t bytes = 0;
    std::uint64_t checksum = 0;  ///< payload FNV (kept for compaction)
    std::uint64_t lru_tick = 0;  ///< larger = more recently used
  };

  std::filesystem::path shard_dir(std::uint64_t key) const;
  std::filesystem::path entry_path(std::uint64_t key) const;
  // The `_locked` protocol is now a compiler-checked contract, not a
  // naming convention: these can only be called with mu_ held.
  void quarantine_locked(std::uint64_t key, const std::filesystem::path& p)
      HYDRA_REQUIRES(mu_);
  void enforce_capacity_locked() HYDRA_REQUIRES(mu_);
  /// Append one journal line: op 'P' (publish, with checksum) or
  /// 'E' (deliberate removal: eviction, stale drop, quarantine).
  void append_manifest_locked(char op, std::uint64_t key,
                              std::uint64_t checksum = 0)
      HYDRA_REQUIRES(mu_);
  /// Rewrite manifest.log as one `P` line per indexed entry, in key
  /// order, unless `journal` (its current bytes) is exactly that already.
  void compact_manifest_locked(std::string_view journal) HYDRA_REQUIRES(mu_);
  void recover_locked() HYDRA_REQUIRES(mu_);

  Options opts_;  ///< immutable after construction
  /// Guards the index only — entry file I/O happens outside it (with
  /// revalidation after reacquiring) so shard reads/writes parallelise.
  mutable util::Mutex mu_;
  std::map<std::uint64_t, IndexEntry> index_ HYDRA_GUARDED_BY(mu_);
  std::uint64_t total_bytes_ HYDRA_GUARDED_BY(mu_) = 0;
  std::uint64_t lru_clock_ HYDRA_GUARDED_BY(mu_) = 0;
  std::uint64_t quarantine_seq_ HYDRA_GUARDED_BY(mu_) = 0;
  std::atomic<std::uint64_t> tmp_seq_{0};  ///< unique temp names, lock-free
  Stats stats_ HYDRA_GUARDED_BY(mu_);
};

}  // namespace hydra::sim
