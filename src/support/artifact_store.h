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
// of a sweep.  It holds no state besides its root: concurrent loads read
// files, and concurrent writers of one key only race to rename identical
// bytes into place.
//
// Old stores may hold entries that nothing reads any more (schedules, MII
// maps, v2 front entries, written by older builds under retired key
// domains); deleting the directory reclaims them.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace qvliw {

class ArtifactStore {
 public:
  /// Opens (and lazily creates) the store rooted at `root`.
  explicit ArtifactStore(std::string root);

  /// Reads the blob stored under `key` into `blob`; false when absent or
  /// unreadable (a corrupt entry is indistinguishable from a miss by
  /// design — callers revalidate through their own decoding).  Thread-safe.
  [[nodiscard]] bool load(std::uint64_t key, std::string& blob) const;

  /// Atomically installs `blob` under `key`, overwriting any previous
  /// value.  Failures (full disk, permissions) are swallowed: the store is
  /// a cache, and losing a write only costs a future recomputation.
  /// Thread-safe.
  void save(std::uint64_t key, std::string_view blob) const;

 private:
  [[nodiscard]] std::string path_for(std::uint64_t key) const;

  std::string root_;
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
