#include "harness/checkpoint.h"

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <utility>

#include "harness/shard.h"
#include "support/diagnostics.h"
#include "support/rng.h"
#include "support/strings.h"

namespace qvliw {

namespace fs = std::filesystem;

namespace {

// Magic + layout version of the journal.  Bump on any change to the
// header/record framing AND alongside kShardMagic whenever the shared
// LoopResult / cache-stats record layout (harness/shard.h) changes: a
// stale journal replayed under a new layout would resurrect results the
// current build cannot have produced.
// v2: LoopResult gained verify_checked/verify_violations (kShardMagic v4).
// v3: SweepCacheStats gained the verify/alloc memo counters (kShardMagic v5).
// v4: sched_stats search telemetry + sched-memo counters (kShardMagic v6).
// v5: the warm-start counters left SweepCacheStats (kShardMagic v7).
// v6: heartbeat records and the per-record kind field are gone; every
//     record is a task.
constexpr std::uint64_t kJournalMagic = 0x514a524e4c000006ULL;  // "QJRNL" + v6

// header fields: magic u64, config u64, count i32, index i32, axis bool,
// loops u64, points u64.
constexpr std::size_t kHeaderBytes = 8 + 8 + 4 + 4 + 1 + 8 + 8;

// Caps protecting the replay path from a corrupt length field that the
// bounds checks alone would accept (a record cannot plausibly exceed
// these at paper-suite scale).
constexpr std::uint64_t kMaxPayloadBytes = 1u << 30;
constexpr std::uint64_t kMaxCells = 1u << 24;

std::string hex16(std::uint64_t v) {
  char out[17];
  std::snprintf(out, sizeof out, "%016llx", static_cast<unsigned long long>(v));
  return std::string(out, 16);
}

void encode_header(BlobWriter& out, const JournalHeader& h) {
  out.put_u64(kJournalMagic);
  out.put_u64(h.config_hash);
  out.put_i32(h.shard_count);
  out.put_i32(h.shard_index);
  out.put_bool(h.axis == ShardAxis::kPoints);
  out.put_u64(h.loops);
  out.put_u64(h.points);
}

/// Throws Error on a bad magic/version; truncation cannot happen (the
/// caller only decodes files of at least kHeaderBytes).
JournalHeader decode_header(BlobReader& in) {
  check(in.get_u64() == kJournalMagic,
        "checkpoint journal: bad magic/version (written by another build?)");
  JournalHeader h;
  h.config_hash = in.get_u64();
  h.shard_count = in.get_i32();
  h.shard_index = in.get_i32();
  h.axis = in.get_bool() ? ShardAxis::kPoints : ShardAxis::kLoops;
  h.loops = in.get_u64();
  h.points = in.get_u64();
  return h;
}

bool same_identity(const JournalHeader& a, const JournalHeader& b) {
  return a.config_hash == b.config_hash && a.shard_count == b.shard_count &&
         a.shard_index == b.shard_index && a.axis == b.axis && a.loops == b.loops &&
         a.points == b.points;
}

struct ParsedJournal {
  JournalHeader header;
  std::map<std::uint64_t, std::string> tasks;  // task id -> payload
  std::size_t valid_end = 0;  // offset just past the last intact record
};

/// Walks header + records; stops (without throwing) at the first torn or
/// corrupt record — everything from there on is the tail a killed writer
/// left behind.  Requires bytes.size() >= kHeaderBytes; throws only on a
/// bad magic/version.
ParsedJournal parse_journal(std::string_view bytes) {
  ParsedJournal parsed;
  BlobReader in(bytes);
  parsed.header = decode_header(in);
  parsed.valid_end = in.cursor();
  while (!in.exhausted()) {
    try {
      const std::string payload = in.get_string();
      if (payload.size() > kMaxPayloadBytes) break;
      if (in.get_u64() != hash_bytes(payload)) break;
      BlobReader id_reader(payload);
      parsed.tasks[id_reader.get_u64()] = payload;  // later record wins
      parsed.valid_end = in.cursor();
    } catch (const Error&) {
      break;  // torn tail
    }
  }
  return parsed;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

}  // namespace

std::string checkpoint_journal_path(std::string_view dir, const JournalHeader& header) {
  return cat(dir, "/journal-", hex16(header.config_hash), "-", shard_axis_name(header.axis), "-",
             header.shard_count, "-", header.shard_index, ".qjournal");
}

std::string encode_task_payload(const TaskPayload& payload) {
  BlobWriter out;
  out.put_u64(payload.loop_index);
  out.put_u64(payload.cells.size());
  for (const auto& [point, result] : payload.cells) {
    out.put_u64(point);
    serialize_loop_result(out, result, /*provenance=*/true);
  }
  serialize_cache_stats(out, payload.stats);
  for (const double seconds : payload.front_seconds) out.put_f64(seconds);
  return out.take();
}

TaskPayload decode_task_payload(const std::string& blob) {
  BlobReader in(blob);
  TaskPayload payload;
  payload.loop_index = in.get_u64();
  const std::uint64_t cells = in.get_u64();
  check(cells <= kMaxCells, "task payload: implausible cell count");
  payload.cells.reserve(cells);
  for (std::uint64_t c = 0; c < cells; ++c) {
    const std::uint64_t point = in.get_u64();
    payload.cells.emplace_back(point, deserialize_loop_result(in));
  }
  payload.stats = deserialize_cache_stats(in);
  for (double& seconds : payload.front_seconds) seconds = in.get_f64();
  in.require_exhausted("task payload");
  return payload;
}

TaskJournal::TaskJournal(std::string path, const JournalHeader& header)
    : path_(std::move(path)), header_(header) {
  std::error_code ec;
  fs::create_directories(fs::path(path_).parent_path(), ec);

  const std::string bytes = read_file(path_);
  bool fresh = true;
  if (bytes.size() >= kHeaderBytes) {
    ParsedJournal parsed = parse_journal(bytes);  // throws on foreign magic
    if (!same_identity(parsed.header, header_)) {
      fail(cat("checkpoint journal ", path_,
               ": header disagrees with this sweep (config hash, shard identity, or "
               "dimensions) — the file belongs to a different sweep; remove it or point "
               "checkpoint_dir elsewhere"));
    }
    completed_ = std::move(parsed.tasks);
    if (parsed.valid_end < bytes.size()) {
      truncated_ = bytes.size() - parsed.valid_end;
      fs::resize_file(path_, parsed.valid_end, ec);
      if (ec) fail(cat("cannot truncate torn checkpoint journal ", path_));
    }
    bytes_ = parsed.valid_end;
    fresh = false;
  }
  // An absent file, or one shorter than the header, means nothing was
  // ever committed (the header is written first, in one flush): start
  // over.
  if (fresh) {
    BlobWriter out;
    encode_header(out, header_);
    const std::string head = out.take();
    std::ofstream create(path_, std::ios::binary | std::ios::trunc);
    create.write(head.data(), static_cast<std::streamsize>(head.size()));
    create.flush();
    if (!create.good()) fail(cat("cannot create checkpoint journal ", path_));
    bytes_ = head.size();
  }
  out_.open(path_, std::ios::binary | std::ios::app);
  if (!out_.good()) fail(cat("cannot open checkpoint journal ", path_, " for append"));
}

void TaskJournal::append_task(std::uint64_t task_id, std::string_view payload) {
  QVLIW_ASSERT(payload.size() >= 8, "task payload shorter than its id");
  BlobReader id_reader(payload);
  QVLIW_ASSERT(id_reader.get_u64() == task_id, "task payload id disagrees with task_id");
  BlobWriter out;
  out.put_string(payload);
  out.put_u64(hash_bytes(payload));
  const std::string bytes = out.take();
  out_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out_.flush();
  if (!out_.good()) {
    fail(cat("checkpoint journal ", path_,
             ": append failed (disk full?) — a ledger that cannot record "
             "completed tasks cannot guarantee a restart"));
  }
  bytes_ += bytes.size();
}

TaskCommitter::TaskCommitter(TaskJournal* journal, std::size_t capacity, Sink sink)
    : journal_(journal), sink_(std::move(sink)), channel_(capacity) {
  thread_ = std::thread(&TaskCommitter::commit_loop, this);
}

TaskCommitter::~TaskCommitter() {
  try {
    finish();
  } catch (...) {
    // An unwind is already in flight (or the caller never checked);
    // the error was reported through finish() if anyone asked.
  }
}

void TaskCommitter::commit_loop() {
  TaskCommit commit;
  while (channel_.pop(commit)) {
    if (error_) continue;  // drain + discard: producers must never block
    try {
      if (journal_ != nullptr && !commit.payload.empty()) {
        journal_->append_task(commit.task_id, commit.payload);
      }
      ++committed_;
      if (sink_) sink_(commit, committed_);
    } catch (...) {
      error_ = std::current_exception();
    }
  }
}

void TaskCommitter::submit(TaskCommit commit) { channel_.push(std::move(commit)); }

void TaskCommitter::finish() {
  if (!finished_) {
    finished_ = true;
    channel_.close();
    if (thread_.joinable()) thread_.join();
  }
  if (error_) std::rethrow_exception(error_);
}

}  // namespace qvliw
