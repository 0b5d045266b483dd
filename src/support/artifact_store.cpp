#include "support/artifact_store.h"

#include <unistd.h>

#include <atomic>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "support/diagnostics.h"
#include "support/strings.h"

namespace qvliw {

namespace fs = std::filesystem;

namespace {

std::string hex16(std::uint64_t v) {
  char out[17];
  std::snprintf(out, sizeof out, "%016llx", static_cast<unsigned long long>(v));
  return std::string(out, 16);
}

/// Counter making temp names unique across worker threads of this
/// process; the pid folded into the name alongside it keeps them unique
/// across *processes* too — concurrent bench or sweep processes may share
/// one store directory, and a temp-name collision would interleave two
/// writers' bytes before the rename.  (A multi-process stress test in
/// tests/test_support.cpp forks concurrent writers at one key.)
std::atomic<std::uint64_t> temp_counter{0};

}  // namespace

ArtifactStore::ArtifactStore(std::string root) : root_(std::move(root)) {}

std::string ArtifactStore::path_for(std::uint64_t key) const {
  const std::string hex = hex16(key);
  return root_ + "/" + hex.substr(0, 2) + "/" + hex + ".qart";
}

bool ArtifactStore::load(std::uint64_t key, std::string& blob) const {
  std::ifstream in(path_for(key), std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) return false;
  blob = std::move(buffer).str();
  return true;
}

void ArtifactStore::save(std::uint64_t key, std::string_view blob) const {
  std::error_code ec;  // all failures degrade to "no cache entry written"
  const fs::path target = path_for(key);
  fs::create_directories(target.parent_path(), ec);
  if (ec) return;

  // Unique temp sibling, then atomic rename into place.
  const fs::path temp =
      target.parent_path() /
      (target.filename().string() + ".tmp." + std::to_string(::getpid()) + "." +
       std::to_string(temp_counter.fetch_add(1, std::memory_order_relaxed)));
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out) return;
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    if (!out.good()) {
      out.close();
      fs::remove(temp, ec);
      return;
    }
  }
  fs::rename(temp, target, ec);
  if (ec) fs::remove(temp, ec);
}

// --- blob format -----------------------------------------------------------

void BlobWriter::put_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
}

void BlobWriter::put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }

void BlobWriter::put_i32(std::int32_t v) {
  const auto u = static_cast<std::uint32_t>(v);
  for (int i = 0; i < 4; ++i) bytes_.push_back(static_cast<char>((u >> (8 * i)) & 0xffu));
}

void BlobWriter::put_bool(bool v) { bytes_.push_back(v ? '\1' : '\0'); }

void BlobWriter::put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }

void BlobWriter::put_string(std::string_view s) {
  put_u64(s.size());
  bytes_.append(s);
}

std::uint64_t BlobReader::get_u64() {
  check(cursor_ + 8 <= bytes_.size(), "BlobReader: truncated u64");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes_[cursor_ + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  cursor_ += 8;
  return v;
}

std::int64_t BlobReader::get_i64() { return static_cast<std::int64_t>(get_u64()); }

std::int32_t BlobReader::get_i32() {
  check(cursor_ + 4 <= bytes_.size(), "BlobReader: truncated i32");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes_[cursor_ + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  cursor_ += 4;
  return static_cast<std::int32_t>(v);
}

bool BlobReader::get_bool() {
  check(cursor_ + 1 <= bytes_.size(), "BlobReader: truncated bool");
  return bytes_[cursor_++] != '\0';
}

double BlobReader::get_f64() { return std::bit_cast<double>(get_u64()); }

std::string BlobReader::get_string() {
  const std::uint64_t size = get_u64();
  check(size <= bytes_.size() - cursor_, "BlobReader: truncated string");
  std::string out(bytes_.substr(cursor_, size));
  cursor_ += size;
  return out;
}

void BlobReader::require_exhausted(std::string_view what) const {
  if (!exhausted()) fail(cat(what, ": trailing bytes"));
}

}  // namespace qvliw
