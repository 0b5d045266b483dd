#include "harness/shard.h"

#include "support/artifact_store.h"

namespace qvliw {

namespace {

// One LoopResult's semantic fields through the blob codec, in declaration
// order.  Any change here changes every pinned fingerprint.
void serialize_loop_result(BlobWriter& out, const LoopResult& r) {
  out.put_string(r.name);
  out.put_bool(r.ok);
  out.put_string(r.failure);
  out.put_string(r.failed_stage);
  out.put_i32(r.src_ops);
  out.put_i32(r.sched_ops);
  out.put_i32(r.copies);
  out.put_i32(r.moves);
  out.put_i32(r.unroll_factor);
  out.put_i32(r.res_mii);
  out.put_i32(r.rec_mii);
  out.put_i32(r.mii);
  out.put_i32(r.ii);
  out.put_i32(r.stage_count);
  out.put_f64(r.ii_per_source);
  out.put_f64(r.ipc_static);
  out.put_f64(r.ipc_dynamic);
  out.put_i32(r.total_queues);
  out.put_i32(r.max_private_queues);
  out.put_i32(r.max_segment_queues);
  out.put_i32(r.max_positions);
  out.put_i32(r.registers);
  out.put_bool(r.fits_machine_queues);
  out.put_i32(r.queue_fit_retries);
  out.put_bool(r.sim_ok);
  out.put_i64(r.sim_cycles);
  out.put_bool(r.verify_checked);
  out.put_i32(r.verify_violations);
  out.put_string(r.backend);
}

}  // namespace

std::string sweep_result_fingerprint(const SweepResult& result) {
  BlobWriter out;
  out.put_u64(result.by_point.size());
  for (const std::vector<LoopResult>& results : result.by_point) {
    out.put_u64(results.size());
    for (const LoopResult& r : results) serialize_loop_result(out, r);
  }
  return out.take();
}

}  // namespace qvliw
