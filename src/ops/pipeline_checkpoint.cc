#include "ops/pipeline_checkpoint.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ops/calculator_op.h"
#include "ops/centralized.h"
#include "ops/disseminator_op.h"
#include "ops/merger_op.h"
#include "ops/parser.h"
#include "ops/partitioner_op.h"
#include "ops/tracker_op.h"
#include "storage/serialize.h"
#include "telemetry/log.h"

namespace corrtrack::ops {

namespace {

using storage::ByteReader;
using storage::ByteWriter;

// ---------------------------------------------------------------------------
// Fingerprint: SplitMix64 finaliser chained over each semantic knob.

uint64_t Mix(uint64_t h, uint64_t v) {
  uint64_t z = h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t MixDouble(uint64_t h, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return Mix(h, bits);
}

// ---------------------------------------------------------------------------
// Section layouts: one field list per bolt kind (storage/serialize.h).

using storage::StateOf;

template <class Io, StateOf<CalculatorState> S>
bool Fields(Io& io, S& s) {
  return io.I64(s.instance) && io.U32(s.epoch) && io.U64(s.quiesces) &&
         storage::Counters(io, s.counters);
}

template <class Io, StateOf<PartitionerState> S>
bool Fields(Io& io, S& s) {
  return io.I64(s.instance) && io.U32(s.last_token) &&
         io.U8(s.answered_any) &&
         storage::Seq(io, s.window, [](auto& io, auto& doc) {
           return io.U64(doc.id) && io.I64(doc.time) &&
                  storage::Tags(io, doc.tags);
         });
}

template <class Io, StateOf<ParserState> S>
bool Fields(Io& io, S& s) {
  return storage::Seq(io, s.tags, storage::kStr);
}

template <class Io, StateOf<TrackerState> S>
bool Fields(Io& io, S& s) {
  return io.U64(s.reports_received) && io.U32(s.latest_epoch) &&
         storage::Periods(io, s.periods);
}

template <class Io, StateOf<CentralizedState> S>
bool Fields(Io& io, S& s) {
  return storage::Counters(io, s.counters) && storage::Periods(io, s.periods);
}

template <class Io, StateOf<DisseminatorState> S>
bool Fields(Io& io, S& s) {
  return io.U8(s.has_partitions) && storage::Partitions(io, s.partitions) &&
         io.U32(s.epoch) && io.F64(s.ref_avg_com) &&
         io.F64(s.ref_max_load) && io.U8(s.bootstrap_requested) &&
         io.U8(s.repartition_pending) && io.U32(s.next_token) &&
         io.U64(s.repartitions_requested) && io.U64(s.shrinks) &&
         io.U64(s.handoffs_routed) && io.U64(s.handoff_entries_dropped) &&
         io.I64(s.cooldown_remaining) && io.U64(s.docs_seen) &&
         io.U64(s.next_forced) && io.U64(s.batch_count) &&
         io.U64(s.batch_notifications) &&
         storage::Seq(io, s.batch_per_calculator, storage::kU64) &&
         storage::Seq(io, s.uncovered_counts, [](auto& io, auto& entry) {
           return storage::Tags(io, entry.first) && io.I64(entry.second);
         });
}

template <class Io, StateOf<MergerState> S>
bool Fields(Io& io, S& s) {
  return io.U8(s.has_master) && storage::Partitions(io, s.master) &&
         io.U32(s.epoch) && io.U64(s.single_additions) && io.U64(s.grows) &&
         io.U8(s.had_pending_rounds);
}

template <class S>
std::string Encode(const S& s) {
  ByteWriter w;
  Fields(w, s);
  return w.Take();
}

/// Decodes a whole section: every field, and no byte left over.
template <class S>
bool Decode(std::string_view payload, S* out) {
  ByteReader r(payload);
  return Fields(r, *out) && r.empty();
}

std::string SectionName(const char* prefix, int instance) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s_%04d", prefix, instance);
  return buf;
}

bool ParseInstance(std::string_view name, std::string_view prefix,
                   int* instance) {
  if (name.size() <= prefix.size() + 1 ||
      name.substr(0, prefix.size()) != prefix ||
      name[prefix.size()] != '_') {
    return false;
  }
  const std::string_view digits = name.substr(prefix.size() + 1);
  if (digits.size() > 9) return false;  // 10^9 - 1 still fits an int.
  int value = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + (c - '0');
  }
  *instance = value;
  return true;
}

}  // namespace

uint64_t PipelineConfigFingerprint(const PipelineConfig& config) {
  // The constants stand where knobs that no longer exist were mixed in
  // (count window, fixed-target scaling, elastic bounds and hysteresis,
  // @mention parsing), each at the value every run had: existing
  // checkpoints keep their fingerprint and still restore.
  uint64_t h = 0x6372747261636b31ull;  // "crtrack1"
  h = Mix(h, static_cast<uint64_t>(config.algorithm));
  h = Mix(h, static_cast<uint64_t>(config.num_calculators));
  h = Mix(h, static_cast<uint64_t>(config.num_partitioners));
  h = MixDouble(h, config.repartition_threshold);
  h = Mix(h, static_cast<uint64_t>(config.single_addition_threshold));
  h = Mix(h, static_cast<uint64_t>(config.quality_batch_size));
  h = Mix(h, static_cast<uint64_t>(config.repartition_latency_docs));
  h = Mix(h, static_cast<uint64_t>(config.window_span));
  h = Mix(h, 0);  // Count bound: none.
  h = Mix(h, static_cast<uint64_t>(config.report_period));
  h = Mix(h, static_cast<uint64_t>(config.bootstrap_time));
  h = Mix(h, config.seed);
  h = Mix(h, 0);  // Documents-per-Calculator target: none.
  h = Mix(h, config.elastic.enabled ? 1 : 0);
  h = Mix(h, config.elastic.partition_overhead_load);
  h = Mix(h, 1);  // Minimum partitions.
  h = Mix(h, 0);  // Policy maximum: none.
  h = MixDouble(h, 0.25);  // Resize hysteresis.
  h = Mix(h, static_cast<uint64_t>(config.EffectiveMaxCalculators()));
  for (const uint64_t docs : config.forced_repartition_docs) h = Mix(h, docs);
  for (const int k : config.forced_k_schedule) {
    h = Mix(h, static_cast<uint64_t>(k));
  }
  h = Mix(h, static_cast<uint64_t>(config.tracker_merge));
  h = Mix(h, 0);  // @mentions: not tags.
  return h;
}

PipelineCheckpointState CapturePipelineState(
    stream::Runtime<Message>& runtime, const TopologyHandles& handles,
    const PipelineConfig& config, uint64_t docs_ingested,
    Timestamp last_time) {
  PipelineCheckpointState state;
  state.docs_ingested = docs_ingested;
  state.last_time = last_time;
  state.live_calculators = runtime.ActiveParallelism(handles.calculator);
  state.max_calculators = runtime.MaxParallelism(handles.calculator);

  for (int i = 0; i < state.max_calculators; ++i) {
    CalculatorState cs;
    static_cast<CalculatorBolt*>(runtime.bolt(handles.calculator, i))
        ->ExportState(&cs);
    state.calculators.push_back(std::move(cs));
  }
  for (int i = 0; i < config.num_partitioners; ++i) {
    PartitionerState ps;
    static_cast<PartitionerBolt*>(runtime.bolt(handles.partitioner, i))
        ->ExportState(&ps);
    state.partitioners.push_back(std::move(ps));
  }
  static_cast<ParserBolt*>(runtime.bolt(handles.parser, 0))
      ->ExportState(&state.parser);
  static_cast<TrackerBolt*>(runtime.bolt(handles.tracker, 0))
      ->ExportState(&state.tracker);
  static_cast<DisseminatorBolt*>(runtime.bolt(handles.disseminator, 0))
      ->ExportState(&state.disseminator);
  static_cast<MergerBolt*>(runtime.bolt(handles.merger, 0))
      ->ExportState(&state.merger);
  if (handles.centralized >= 0) {
    state.has_centralized = true;
    static_cast<CentralizedBolt*>(runtime.bolt(handles.centralized, 0))
        ->ExportState(&state.centralized);
  }
  state.epoch = state.disseminator.epoch;
  // An unfinished repartition round at the cut lost its in-flight
  // proposals; the restore-side flag resets re-arm it, but the checkpoint
  // records the fact for observability.
  state.clean_cut = !state.merger.had_pending_rounds;
  return state;
}

storage::CheckpointData EncodeCheckpoint(const PipelineCheckpointState& state,
                                         uint64_t seq, uint64_t fingerprint) {
  storage::CheckpointData data;
  data.seq = seq;
  data.docs_ingested = state.docs_ingested;
  data.last_time = state.last_time;
  data.epoch = state.epoch;
  data.live_calculators = state.live_calculators;
  data.max_calculators = state.max_calculators;
  data.config_fingerprint = fingerprint;
  data.clean_cut = state.clean_cut;
  for (const CalculatorState& cs : state.calculators) {
    data.sections.push_back(
        {SectionName("calc", cs.instance), Encode(cs)});
  }
  for (const PartitionerState& ps : state.partitioners) {
    data.sections.push_back(
        {SectionName("part", ps.instance), Encode(ps)});
  }
  data.sections.push_back({"parser", Encode(state.parser)});
  data.sections.push_back({"tracker", Encode(state.tracker)});
  data.sections.push_back({"dissem", Encode(state.disseminator)});
  data.sections.push_back({"merger", Encode(state.merger)});
  if (state.has_centralized) {
    data.sections.push_back({"central", Encode(state.centralized)});
  }
  if (!state.serve_blob.empty()) {
    data.sections.push_back({"serve", state.serve_blob});
  }
  return data;
}

namespace {

/// Single refusal funnel so every malformed-section path names the section
/// that tripped it (checksums already passed at storage depth, so a decode
/// failure here means version skew, an encoder bug or forged bytes).
bool RefuseSection(const std::string& name,
                   const char* why = "malformed or unknown") {
  CORRTRACK_LOG(kWarn, "checkpoint", "decode refused: %s section \"%s\"",
                why, name.c_str());
  return false;
}

/// True when the counters, added to an empty table as a restore adds them,
/// can be reported.
bool Reportable(const std::vector<std::pair<TagSet, uint64_t>>& counters) {
  SubsetCounterTable table;
  for (const auto& [tags, count] : counters) table.Add(tags, count);
  return table.Consistent();
}

/// True when every estimate is one a Calculator reports, and no period
/// holds a tagset twice.
bool Reported(
    const std::map<Timestamp, std::vector<JaccardEstimate>>& periods) {
  std::vector<const TagSet*> tags;
  for (const auto& [period_end, estimates] : periods) {
    tags.clear();
    for (const JaccardEstimate& e : estimates) {
      if (e.tags.size() < 2 || e.intersection_count == 0 ||
          e.union_count < e.intersection_count ||
          std::bit_cast<uint64_t>(e.coefficient) !=
              std::bit_cast<uint64_t>(
                  static_cast<double>(e.intersection_count) /
                  static_cast<double>(e.union_count))) {
        return false;
      }
      tags.push_back(&e.tags);
    }
    std::sort(tags.begin(), tags.end(),
              [](const TagSet* a, const TagSet* b) { return *a < *b; });
    if (std::adjacent_find(tags.begin(), tags.end(),
                           [](const TagSet* a, const TagSet* b) {
                             return *a == *b;
                           }) != tags.end()) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool DecodeCheckpoint(const storage::CheckpointData& data,
                      PipelineCheckpointState* out) {
  *out = PipelineCheckpointState();
  out->docs_ingested = data.docs_ingested;
  out->last_time = data.last_time;
  out->epoch = data.epoch;
  out->live_calculators = data.live_calculators;
  out->max_calculators = data.max_calculators;
  out->clean_cut = data.clean_cut;
  for (const storage::CheckpointSection& section : data.sections) {
    const std::string& name = section.name;
    const std::string_view payload = section.payload;
    int instance = -1;
    bool ok = true;
    if (ParseInstance(name, "calc", &instance)) {
      ok = Decode(payload, &out->calculators.emplace_back()) &&
           out->calculators.back().instance == instance;
    } else if (ParseInstance(name, "part", &instance)) {
      ok = Decode(payload, &out->partitioners.emplace_back()) &&
           out->partitioners.back().instance == instance;
    } else if (name == "parser") {
      ok = Decode(payload, &out->parser);
    } else if (name == "tracker") {
      ok = Decode(payload, &out->tracker);
    } else if (name == "dissem") {
      ok = Decode(payload, &out->disseminator);
    } else if (name == "merger") {
      ok = Decode(payload, &out->merger);
    } else if (name == "central") {
      ok = Decode(payload, &out->centralized);
      out->has_centralized = true;
    } else if (name == "serve") {
      out->serve_blob = section.payload;
    } else {
      ok = false;  // Unknown: version skew, refuse.
    }
    if (!ok) return RefuseSection(name);
  }
  return true;
}

bool CheckCounterSections(const PipelineCheckpointState& state) {
  constexpr const char* kWhy = "inconsistent counters in";
  for (const CalculatorState& cs : state.calculators) {
    if (!Reportable(cs.counters)) {
      return RefuseSection(SectionName("calc", cs.instance), kWhy);
    }
  }
  if (state.has_centralized && !Reportable(state.centralized.counters)) {
    return RefuseSection("central", kWhy);
  }
  return true;
}

bool CheckPeriodSections(const PipelineCheckpointState& state) {
  constexpr const char* kWhy = "estimates no Calculator reports in";
  if (!Reported(state.tracker.periods)) return RefuseSection("tracker", kWhy);
  if (state.has_centralized && !Reported(state.centralized.periods)) {
    return RefuseSection("central", kWhy);
  }
  return true;
}

}  // namespace corrtrack::ops
