// Content-addressed on-disk artifact store.
//
// A flat key-value store mapping 64-bit content keys to opaque byte blobs,
// laid out as  <root>/<aa>/<16-hex-digit-key>.qart  where <aa> is the
// key's top byte (256-way fan-out keeps directories small at paper-suite
// scale).  Writes go through a process-unique temp file followed by an
// atomic rename, so concurrent writers — worker threads of one sweep or
// several bench processes sharing a store — can only ever race to install
// identical bytes; readers never observe a partial blob.
//
// Keys are expected to be *content* hashes (e.g. Loop::content_hash
// combined with an options-prefix hash and a format version), so a hit is
// semantically a recomputation skipped.  The store itself is payload-
// agnostic; callers bring their own serialisation, for which BlobWriter /
// BlobReader provide a minimal portable binary format (fixed-width
// little-endian integers, length-prefixed strings).
//
// Thread safety: one ArtifactStore may be shared by every worker thread
// of a sweep.  Reads go through a read-mostly in-memory index — 16 lock
// stripes over key -> blob, filled on first load and on save — so a hot
// key costs one short stripe lock instead of a filesystem round trip, and
// disk I/O always happens *outside* the stripe lock.  Only *positive*
// results are memoised: a miss is re-probed on disk every time, so
// entries installed by concurrent processes become visible without any
// invalidation protocol.  Because keys are content hashes, a memoised
// blob can never go stale — at worst the index re-serves bytes another
// writer just re-installed identically.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace qvliw {

/// Operator-facing inventory of a store directory (ArtifactStore::stats):
/// installed entries, leftover temp files from killed writers, and the
/// format-version markers recorded by mark_version.
struct ArtifactStoreStats {
  std::uint64_t entries = 0;     // installed *.qart blobs
  std::uint64_t entry_bytes = 0;
  std::uint64_t temp_files = 0;  // *.tmp.* siblings a killed writer left behind
  std::uint64_t temp_bytes = 0;
  std::uint64_t fanout_dirs = 0;  // populated <aa>/ directories
  /// Format versions that have written into this store, ascending (from
  /// the root's `format.v<N>` markers).  More than one version means
  /// entries keyed under retired key domains are still on disk — dead
  /// weight that is never read again and can be garbage-collected.
  std::vector<std::uint64_t> versions;
};

class ArtifactStore {
 public:
  /// Opens (and lazily creates) the store rooted at `root`.
  explicit ArtifactStore(std::string root);

  /// Non-copyable: the striped index carries mutexes, and two copies
  /// would silently stop sharing their memoisation.
  ArtifactStore(const ArtifactStore&) = delete;
  ArtifactStore& operator=(const ArtifactStore&) = delete;

  /// Reads the blob stored under `key` into `blob`; false when absent or
  /// unreadable (a corrupt entry is indistinguishable from a miss by
  /// design — callers revalidate through their own decoding).  A hit is
  /// memoised in the striped index; thread-safe.
  [[nodiscard]] bool load(std::uint64_t key, std::string& blob) const;

  /// Atomically installs `blob` under `key`, overwriting any previous
  /// value, and memoises it so later loads through this object skip the
  /// disk.  Failures (full disk, permissions) are swallowed: the store is
  /// a cache, and losing a write only costs a future recomputation (the
  /// memoised copy still serves this process).  Thread-safe.
  void save(std::uint64_t key, std::string_view blob) const;

  [[nodiscard]] const std::string& root() const { return root_; }

  /// Walks the store and reports entry counts, bytes, leftover temp
  /// files, and the version-marker mix — the maintenance view for
  /// operators inspecting a shared store directory.  Purely read-only; a
  /// missing root reports all-zero stats.
  [[nodiscard]] ArtifactStoreStats stats() const;

  /// Records that a writer using blob-format `version` used this store,
  /// as an empty `format.v<N>` marker at the root (idempotent, atomic
  /// like save()).  Writers call this once per process so stats() can
  /// report which key domains a long-lived shared store has accumulated.
  void mark_version(std::uint64_t version) const;

 private:
  /// One lock stripe of the in-memory index.  Blobs are shared_ptr so a
  /// reader can copy the bytes out after dropping the stripe lock even if
  /// an eviction sweeps the stripe meanwhile.
  struct Stripe {
    std::mutex mutex;
    std::unordered_map<std::uint64_t, std::shared_ptr<const std::string>> blobs;
  };

  static constexpr std::size_t kStripes = 16;
  /// Per-stripe entry cap; a stripe that grows past it is cleared (the
  /// index is a cache of a cache — wholesale eviction is always correct).
  static constexpr std::size_t kStripeCap = 4096;

  [[nodiscard]] std::string path_for(std::uint64_t key) const;
  [[nodiscard]] Stripe& stripe_for(std::uint64_t key) const;
  void memoize(std::uint64_t key, std::shared_ptr<const std::string> blob) const;

  std::string root_;
  mutable std::array<Stripe, kStripes> stripes_;
};

/// Append-only builder of the store's portable binary blob format.
class BlobWriter {
 public:
  void put_u64(std::uint64_t v);
  void put_i64(std::int64_t v);
  void put_i32(std::int32_t v);
  void put_bool(bool v);
  void put_f64(double v);               // IEEE-754 bits as a u64
  void put_string(std::string_view s);  // u64 length + bytes

  [[nodiscard]] std::string take() { return std::move(bytes_); }

 private:
  std::string bytes_;
};

/// Sequential reader over a blob.  Any out-of-bounds read throws Error;
/// store clients catch it and treat the entry as a miss.
class BlobReader {
 public:
  explicit BlobReader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint64_t get_u64();
  [[nodiscard]] std::int64_t get_i64();
  [[nodiscard]] std::int32_t get_i32();
  [[nodiscard]] bool get_bool();
  [[nodiscard]] double get_f64();
  [[nodiscard]] std::string get_string();

  /// True when every byte has been consumed.
  [[nodiscard]] bool exhausted() const { return cursor_ == bytes_.size(); }

  /// Bytes consumed so far (the offset of the next read).  Record-framed
  /// readers (the checkpoint journal) use this to remember the last
  /// intact record boundary when a torn tail cuts a decode short.
  [[nodiscard]] std::size_t cursor() const { return cursor_; }

  /// Throws Error("<what>: trailing bytes") unless exhausted.  Every
  /// top-level decoder of a store entry must end with this: a blob that
  /// decodes cleanly but has bytes left over is a *different* (longer,
  /// future-format) entry, and accepting it would replay stale artifacts
  /// instead of treating them as misses.
  void require_exhausted(std::string_view what) const;

 private:
  std::string_view bytes_;
  std::size_t cursor_ = 0;
};

}  // namespace qvliw
