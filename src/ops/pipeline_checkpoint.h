#ifndef CORRTRACK_OPS_PIPELINE_CHECKPOINT_H_
#define CORRTRACK_OPS_PIPELINE_CHECKPOINT_H_

#include <cstdint>

#include "ops/checkpoint_state.h"
#include "ops/messages.h"
#include "ops/pipeline_config.h"
#include "ops/topology_builder.h"
#include "storage/checkpoint.h"
#include "stream/runtime.h"

namespace corrtrack::ops {

/// Capture and section codec between the live pipeline and the storage
/// layer's CheckpointData. The division of labour:
///
///   bolts          Export/RestoreState       (ops/checkpoint_state.h)
///   this file      capture + section layouts (sections <-> state structs)
///   storage        field codecs, chunk frames, CRCs, the manifest commit
///                  protocol (storage/serialize.h, storage/checkpoint.h)
///
/// Each section kind states its layout once, as a field list that both
/// encodes and decodes (storage/serialize.h). One section per component
/// instance — calc_<i>, part_<i>, and the singletons parser / tracker /
/// dissem / merger / central / serve — so the CheckpointReader's
/// chunk-parallel restore has real parallelism to use.

/// Fingerprint of every config knob the checkpoint format depends on
/// (semantic state: algorithm, counts, periods, thresholds, seed, merge
/// rule). Restore refuses a checkpoint whose fingerprint differs — counters
/// from a run with a different window span or seed would be silently wrong,
/// not just stale. Execution-substrate knobs (runtime kind, threads, queue
/// capacity) are deliberately excluded: a checkpoint taken on
/// the simulator restores onto the pool runtime and vice versa.
uint64_t PipelineConfigFingerprint(const PipelineConfig& config);

/// Captures every bolt's state from a drained runtime (call only after
/// Run() returned — the capture reads bolt internals without locks, which
/// is safe exactly when no task is live). Every provisioned Calculator is
/// captured, active or not, so retirees keep their residual counters.
PipelineCheckpointState CapturePipelineState(
    stream::Runtime<Message>& runtime, const TopologyHandles& handles,
    const PipelineConfig& config, uint64_t docs_ingested, Timestamp last_time);

/// Serialises the captured state into the storage layer's checkpoint unit.
storage::CheckpointData EncodeCheckpoint(const PipelineCheckpointState& state,
                                         uint64_t seq, uint64_t fingerprint);

/// Parses a loaded checkpoint back. Returns false on any malformed or
/// unknown section: CRC-valid bytes can still carry a version skew or a
/// forged count, so nothing read is trusted to be in bounds.
bool DecodeCheckpoint(const storage::CheckpointData& data,
                      PipelineCheckpointState* out);

/// Returns false on a decoded calculator or centralized section whose
/// counters no document stream produces (a tracked set's union count below
/// its intersection count): the restored bolt would abort at its next
/// report. Runs the report's own lattice pass (SubsetCounterTable::
/// Consistent) over the counters the restore would Add.
bool CheckCounterSections(const PipelineCheckpointState& state);

/// Returns false on a decoded tracker or centralized section holding a
/// retained estimate no Calculator reports: CN of 0, a union count below
/// CN, a coefficient whose bits are not double(CN) / double(union) (the
/// expression of ReportAll and MergeEstimate), fewer than two tags, or a
/// tagset twice in one period.
bool CheckPeriodSections(const PipelineCheckpointState& state);

}  // namespace corrtrack::ops

#endif  // CORRTRACK_OPS_PIPELINE_CHECKPOINT_H_
