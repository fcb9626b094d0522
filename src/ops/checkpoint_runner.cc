#include "ops/checkpoint_runner.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "storage/status.h"
#include "storage/storage.h"
#include "telemetry/clock.h"
#include "telemetry/log.h"
#include "telemetry/pipeline_telemetry.h"

namespace corrtrack::ops {

namespace {

/// A bounded view over the shared underlying spout. Each segment owns one
/// (topologies take spout ownership), while the real stream position —
/// `docs`/`last_time` — lives in the runner and survives rebuilds.
class SegmentSpout : public stream::Spout<Message> {
 public:
  SegmentSpout(stream::Spout<Message>* inner, uint64_t budget, uint64_t* docs,
               Timestamp* last_time)
      : inner_(inner), budget_(budget), docs_(docs), last_time_(last_time) {}

  bool Next(Message* out, Timestamp* time) override {
    if (budget_ == 0) return false;
    if (!inner_->Next(out, time)) {
      budget_ = 0;
      return false;
    }
    --budget_;
    ++*docs_;
    if (*time > *last_time_) *last_time_ = *time;
    return true;
  }

 private:
  stream::Spout<Message>* inner_;
  uint64_t budget_;
  uint64_t* docs_;
  Timestamp* last_time_;
};

/// Empty stream for the final drain segment (flush-horizon ticks only).
class EmptySpout : public stream::Spout<Message> {
 public:
  bool Next(Message*, Timestamp*) override { return false; }
};

/// One-slot lookahead so the runner knows *before* building a segment
/// whether any documents remain (decides mid-cut vs final drain).
class PeekableSpout : public stream::Spout<Message> {
 public:
  explicit PeekableSpout(std::unique_ptr<stream::Spout<Message>> inner)
      : inner_(std::move(inner)) {}

  bool HasNext() {
    if (!buffered_) buffered_ = inner_->Next(&msg_, &time_);
    return buffered_;
  }

  bool Next(Message* out, Timestamp* time) override {
    if (!HasNext()) return false;
    *out = std::move(msg_);
    *time = time_;
    buffered_ = false;
    return true;
  }

 private:
  std::unique_ptr<stream::Spout<Message>> inner_;
  Message msg_;
  Timestamp time_ = 0;
  bool buffered_ = false;
};

}  // namespace

bool RunCheckpointedPipeline(std::unique_ptr<stream::Spout<Message>> spout,
                             const PipelineConfig& config,
                             const CheckpointRunnerOptions& options,
                             MetricsSink* metrics,
                             bool with_centralized_baseline,
                             PeriodSink* tracker_sink,
                             PeriodSink* baseline_sink,
                             Timestamp final_flush_horizon,
                             CheckpointedRun* out, std::string* error) {
  if (metrics == nullptr) metrics = NullMetricsSink();
  *out = CheckpointedRun();
  CheckpointRunStats& stats = out->stats;
  telemetry::PipelineTelemetry* const telemetry = config.telemetry;
  const uint64_t fingerprint = PipelineConfigFingerprint(config);

  PeekableSpout source(std::move(spout));
  uint64_t docs = 0;
  Timestamp last_time = 0;
  std::shared_ptr<const PipelineCheckpointState> restore_state;

  // -------------------------------------------------------------- restore
  if (!options.restore_uri.empty()) {
    storage::OpenedStorage opened;
    storage::Status status = storage::OpenStorage(options.restore_uri,
                                                  &opened);
    if (!status.ok()) {
      if (error != nullptr) {
        *error = "restore: open " + options.restore_uri + ": " +
                 status.ToString();
      }
      return false;
    }
    storage::CheckpointReader reader(opened.storage, opened.root,
                                     options.retry);
    storage::CheckpointData data;
    const int64_t restore_t0 = telemetry::MonotonicNanos();
    status = reader.ReadLatest(&data);
    if (telemetry != nullptr) {
      telemetry->checkpoint_restore_us->Record(telemetry::SpanMicros(
          restore_t0, telemetry::MonotonicNanos()));
      telemetry->storage_retries->Increment(reader.retries());
    }
    stats.storage_retries += reader.retries();
    if (!status.ok()) {
      if (error != nullptr) *error = "restore: " + status.ToString();
      return false;
    }
    if (data.config_fingerprint != fingerprint) {
      if (error != nullptr) {
        *error = "restore: config fingerprint mismatch (checkpoint was taken "
                 "under a different pipeline configuration)";
      }
      return false;
    }
    auto state = std::make_shared<PipelineCheckpointState>();
    if (!DecodeCheckpoint(data, state.get()) ||
        !CheckCounterSections(*state) || !CheckPeriodSections(*state)) {
      if (error != nullptr) *error = "restore: malformed checkpoint payload";
      return false;
    }
    if (options.restore_serve && !state->serve_blob.empty() &&
        !options.restore_serve(state->serve_blob)) {
      if (error != nullptr) *error = "restore: serving-index blob rejected";
      return false;
    }
    // Rewind the source to the cut: discard the already-ingested prefix.
    for (uint64_t i = 0; i < state->docs_ingested; ++i) {
      Message msg;
      Timestamp time = 0;
      if (!source.Next(&msg, &time)) {
        if (error != nullptr) {
          *error = "restore: stream shorter than the checkpoint position";
        }
        return false;
      }
    }
    docs = state->docs_ingested;
    last_time = state->last_time;
    stats.restore_chunks = reader.last_restore_chunks();
    stats.restored = true;
    stats.restored_seq = data.seq;
    stats.restored_docs = docs;
    restore_state = std::move(state);
  }

  // ------------------------------------------------------- writer setup
  bool checkpointing =
      !options.checkpoint_uri.empty() && options.every_docs > 0;
  std::unique_ptr<storage::CheckpointWriter> writer;
  std::shared_ptr<storage::FaultInjectingStorage> faulty;
  uint64_t next_seq = 1;
  if (checkpointing) {
    storage::OpenedStorage opened;
    const storage::Status status =
        storage::OpenStorage(options.checkpoint_uri, &opened);
    if (!status.ok()) {
      // Graceful degradation: an unusable checkpoint store must not stall
      // ingest. Log, count, run on without durability.
      CORRTRACK_LOG(kWarn, "checkpoint", "disabled: open %s failed: %s",
                    options.checkpoint_uri.c_str(),
                    status.ToString().c_str());
      ++stats.checkpoints_failed;
      if (telemetry != nullptr) {
        telemetry->checkpoints_failed->Increment();
      }
      checkpointing = false;
    } else {
      // Resume the sequence numbering past any checkpoint already durable
      // under this root (discovery uses the raw backend — an injected
      // fault must not fork the numbering).
      storage::CheckpointReader lister(opened.storage, opened.root);
      std::vector<uint64_t> seqs;
      if (lister.ListValid(&seqs).ok() && !seqs.empty()) {
        next_seq = seqs.back() + 1;
      }
      std::shared_ptr<storage::Storage> backend = opened.storage;
      if (options.faults.enabled()) {
        faulty = std::make_shared<storage::FaultInjectingStorage>(
            backend, options.faults);
        backend = faulty;
      }
      writer = std::make_unique<storage::CheckpointWriter>(
          backend, opened.root, options.retry);
    }
  }

  // -------------------------------------------------------- segment loop
  TopologyHandles handles;
  std::unique_ptr<stream::Topology<Message>> topology;
  std::unique_ptr<stream::Runtime<Message>> runtime;

  auto build_segment = [&](std::unique_ptr<stream::Spout<Message>> seg_spout) {
    topology = std::make_unique<stream::Topology<Message>>();
    handles = BuildCorrelationTopology(
        topology.get(), std::move(seg_spout), config, metrics,
        with_centralized_baseline, tracker_sink, baseline_sink, restore_state);
    runtime = MakeConfiguredRuntime(topology.get(), config,
                                    /*start_time=*/docs > 0 ? last_time : 0);
    // Re-apply the elastic parallelism of the cut. The topology was built
    // with the ORIGINAL config (stable fingerprint, stable instance
    // numbering); the live count is runtime state, restored here the same
    // way the Merger's grow / the Disseminator's shrink set it.
    if (restore_state != nullptr && restore_state->live_calculators > 0) {
      const int live = restore_state->live_calculators;
      if (live != runtime->ActiveParallelism(handles.calculator)) {
        runtime->ResizeComponent(handles.calculator, live);
      }
    }
  };

  while (source.HasNext()) {
    const uint64_t budget = checkpointing
                                ? options.every_docs
                                : std::numeric_limits<uint64_t>::max();
    build_segment(
        std::make_unique<SegmentSpout>(&source, budget, &docs, &last_time));
    // A mid-stream cut must not flush periods past the cut; only a segment
    // known to reach end-of-stream gets the final horizon.
    const bool final_segment = !checkpointing;
    runtime->Run(final_segment ? final_flush_horizon : 0);

    if (final_segment || !source.HasNext()) break;

    // Epoch cut: the drained runtime's state, captured in memory. This
    // state continues the pipeline whether or not the write below commits.
    auto captured = std::make_shared<PipelineCheckpointState>(
        CapturePipelineState(*runtime, handles, config, docs, last_time));
    if (options.export_serve) options.export_serve(&captured->serve_blob);

    const uint64_t seq = next_seq;
    storage::CheckpointData data =
        EncodeCheckpoint(*captured, seq, fingerprint);
    uint64_t bytes = 0;
    uint64_t chunks = 0;
    const int64_t write_t0 = telemetry::MonotonicNanos();
    const storage::Status status = writer->Write(data, &bytes, &chunks);
    if (telemetry != nullptr) {
      telemetry->checkpoint_write_us->Record(
          telemetry::SpanMicros(write_t0, telemetry::MonotonicNanos()));
    }
    CheckpointEvent event;
    event.seq = seq;
    event.docs_ingested = docs;
    event.time = last_time;
    if (status.ok()) {
      ++next_seq;
      event.ok = true;
      event.bytes = bytes;
      event.chunks = chunks;
      ++stats.checkpoints_written;
      stats.checkpoint_bytes += bytes;
      stats.checkpoint_chunks += chunks;
      if (telemetry != nullptr) {
        telemetry->checkpoints_written->Increment();
      }
    } else {
      // Graceful degradation: log + count; the previous durable checkpoint
      // is untouched (manifest-last commit) and ingest continues.
      CORRTRACK_LOG(kWarn, "checkpoint", "seq %llu at %llu docs failed: %s",
                    static_cast<unsigned long long>(seq),
                    static_cast<unsigned long long>(docs),
                    status.ToString().c_str());
      ++stats.checkpoints_failed;
      if (telemetry != nullptr) {
        telemetry->checkpoints_failed->Increment();
      }
    }
    stats.events.push_back(event);

    restore_state = std::move(captured);
  }

  // Checkpointed runs end every data segment with flush 0 (a cut must not
  // fire future periods); the uninterrupted driver's flush horizon is
  // reproduced by one drain-only segment resuming at the cut. A
  // zero-document stream (runtime == nullptr) builds here too, so the
  // caller always gets an inspectable pipeline.
  if (checkpointing || runtime == nullptr) {
    if (runtime != nullptr) {
      restore_state = std::make_shared<PipelineCheckpointState>(
          CapturePipelineState(*runtime, handles, config, docs, last_time));
    }
    build_segment(std::make_unique<EmptySpout>());
    runtime->Run(final_flush_horizon);
  }

  if (writer != nullptr) {
    stats.storage_retries += writer->retries();
    if (telemetry != nullptr) {
      telemetry->storage_retries->Increment(writer->retries());
    }
  }
  if (faulty != nullptr) stats.storage_faults_injected = faulty->stats().total;

  out->topology = std::move(topology);
  out->runtime = std::move(runtime);
  out->handles = handles;
  out->docs_ingested = docs;
  out->last_time = last_time;
  return true;
}

}  // namespace corrtrack::ops
