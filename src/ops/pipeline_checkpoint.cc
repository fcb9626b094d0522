#include "ops/pipeline_checkpoint.h"

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
// Field-level encoders. Tag runs are written via TagSet iteration (always
// canonical) and rebuilt with FromSorted, so a round-trip is bit-exact.

void PutTagSet(ByteWriter* w, const TagSet& tags) {
  w->PutU32(static_cast<uint32_t>(tags.size()));
  for (const TagId tag : tags) w->PutU32(tag);
}

bool GetTagSet(ByteReader* r, TagSet* out) {
  uint32_t n = 0;
  if (!r->GetU32(&n)) return false;
  if (n > static_cast<uint32_t>(kMaxTagsPerDocument)) return false;
  TagId buf[kMaxTagsPerDocument];
  for (uint32_t i = 0; i < n; ++i) {
    if (!r->GetU32(&buf[i])) return false;
  }
  // CRC-valid bytes are not canonical by construction: refuse a run that
  // FromSorted would abort on.
  if (!TagSet::IsSortedRun(buf, buf + n)) return false;
  *out = TagSet::FromSorted(buf, buf + n);
  return true;
}

void PutCounters(ByteWriter* w,
                 const std::vector<std::pair<TagSet, uint64_t>>& counters) {
  w->PutU64(counters.size());
  for (const auto& [tags, count] : counters) {
    PutTagSet(w, tags);
    w->PutU64(count);
  }
}

bool GetCounters(ByteReader* r,
                 std::vector<std::pair<TagSet, uint64_t>>* out) {
  uint64_t n = 0;
  if (!r->GetU64(&n)) return false;
  out->clear();
  out->reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    TagSet tags;
    uint64_t count = 0;
    if (!GetTagSet(r, &tags) || !r->GetU64(&count)) return false;
    out->emplace_back(std::move(tags), count);
  }
  return true;
}

void PutPeriods(
    ByteWriter* w,
    const std::map<Timestamp, std::vector<JaccardEstimate>>& periods) {
  w->PutU64(periods.size());
  for (const auto& [period_end, estimates] : periods) {
    w->PutI64(period_end);
    w->PutU64(estimates.size());
    for (const JaccardEstimate& e : estimates) {
      PutTagSet(w, e.tags);
      w->PutDouble(e.coefficient);
      w->PutU64(e.intersection_count);
      w->PutU64(e.union_count);
    }
  }
}

bool GetPeriods(ByteReader* r,
                std::map<Timestamp, std::vector<JaccardEstimate>>* out) {
  uint64_t n = 0;
  if (!r->GetU64(&n)) return false;
  out->clear();
  for (uint64_t i = 0; i < n; ++i) {
    int64_t period_end = 0;
    uint64_t count = 0;
    if (!r->GetI64(&period_end) || !r->GetU64(&count)) return false;
    std::vector<JaccardEstimate>& estimates = (*out)[period_end];
    estimates.reserve(static_cast<size_t>(count));
    for (uint64_t j = 0; j < count; ++j) {
      JaccardEstimate e;
      if (!GetTagSet(r, &e.tags) || !r->GetDouble(&e.coefficient) ||
          !r->GetU64(&e.intersection_count) || !r->GetU64(&e.union_count)) {
        return false;
      }
      estimates.push_back(std::move(e));
    }
  }
  return true;
}

void PutPartitionSet(ByteWriter* w, const PartitionSetState& ps) {
  w->PutU64(ps.partition_tags.size());
  for (const std::vector<TagId>& tags : ps.partition_tags) {
    w->PutU64(tags.size());
    for (const TagId tag : tags) w->PutU32(tag);
  }
  w->PutU64(ps.loads.size());
  for (const uint64_t load : ps.loads) w->PutU64(load);
}

bool GetPartitionSet(ByteReader* r, PartitionSetState* out) {
  uint64_t k = 0;
  if (!r->GetU64(&k)) return false;
  out->partition_tags.clear();
  out->partition_tags.resize(static_cast<size_t>(k));
  for (uint64_t p = 0; p < k; ++p) {
    uint64_t n = 0;
    if (!r->GetU64(&n)) return false;
    std::vector<TagId>& tags = out->partition_tags[static_cast<size_t>(p)];
    tags.resize(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n; ++i) {
      if (!r->GetU32(&tags[static_cast<size_t>(i)])) return false;
    }
  }
  uint64_t loads = 0;
  if (!r->GetU64(&loads)) return false;
  out->loads.resize(static_cast<size_t>(loads));
  for (uint64_t i = 0; i < loads; ++i) {
    if (!r->GetU64(&out->loads[static_cast<size_t>(i)])) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Section encoders, one per bolt kind.

std::string EncodeCalculator(const CalculatorState& s) {
  ByteWriter w;
  w.PutI64(s.instance);
  w.PutU32(s.epoch);
  w.PutU64(s.quiesces);
  PutCounters(&w, s.counters);
  return w.Take();
}

bool DecodeCalculator(std::string_view payload, CalculatorState* out) {
  ByteReader r(payload);
  int64_t instance = 0;
  if (!r.GetI64(&instance) || !r.GetU32(&out->epoch) ||
      !r.GetU64(&out->quiesces) || !GetCounters(&r, &out->counters)) {
    return false;
  }
  out->instance = static_cast<int>(instance);
  return r.empty();
}

std::string EncodePartitioner(const PartitionerState& s) {
  ByteWriter w;
  w.PutI64(s.instance);
  w.PutU32(s.last_token);
  w.PutU8(s.answered_any ? 1 : 0);
  w.PutU64(s.window.size());
  for (const Document& doc : s.window) {
    w.PutU64(doc.id);
    w.PutI64(doc.time);
    PutTagSet(&w, doc.tags);
  }
  return w.Take();
}

bool DecodePartitioner(std::string_view payload, PartitionerState* out) {
  ByteReader r(payload);
  int64_t instance = 0;
  uint8_t answered = 0;
  uint64_t n = 0;
  if (!r.GetI64(&instance) || !r.GetU32(&out->last_token) ||
      !r.GetU8(&answered) || !r.GetU64(&n)) {
    return false;
  }
  out->instance = static_cast<int>(instance);
  out->answered_any = answered != 0;
  out->window.clear();
  out->window.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    Document doc;
    if (!r.GetU64(&doc.id) || !r.GetI64(&doc.time) ||
        !GetTagSet(&r, &doc.tags)) {
      return false;
    }
    out->window.push_back(std::move(doc));
  }
  return r.empty();
}

std::string EncodeParser(const ParserState& s) {
  ByteWriter w;
  w.PutU64(s.tags.size());
  for (const std::string& name : s.tags) w.PutBytes(name);
  return w.Take();
}

bool DecodeParser(std::string_view payload, ParserState* out) {
  ByteReader r(payload);
  uint64_t n = 0;
  if (!r.GetU64(&n)) return false;
  out->tags.clear();
  out->tags.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    std::string name;
    if (!r.GetString(&name)) return false;
    out->tags.push_back(std::move(name));
  }
  return r.empty();
}

std::string EncodeTracker(const TrackerState& s) {
  ByteWriter w;
  w.PutU64(s.reports_received);
  w.PutU32(s.latest_epoch);
  PutPeriods(&w, s.periods);
  return w.Take();
}

bool DecodeTracker(std::string_view payload, TrackerState* out) {
  ByteReader r(payload);
  if (!r.GetU64(&out->reports_received) || !r.GetU32(&out->latest_epoch) ||
      !GetPeriods(&r, &out->periods)) {
    return false;
  }
  return r.empty();
}

std::string EncodeCentralized(const CentralizedState& s) {
  ByteWriter w;
  PutCounters(&w, s.counters);
  PutPeriods(&w, s.periods);
  return w.Take();
}

bool DecodeCentralized(std::string_view payload, CentralizedState* out) {
  ByteReader r(payload);
  if (!GetCounters(&r, &out->counters) || !GetPeriods(&r, &out->periods)) {
    return false;
  }
  return r.empty();
}

std::string EncodeDisseminator(const DisseminatorState& s) {
  ByteWriter w;
  w.PutU8(s.has_partitions ? 1 : 0);
  PutPartitionSet(&w, s.partitions);
  w.PutU32(s.epoch);
  w.PutDouble(s.ref_avg_com);
  w.PutDouble(s.ref_max_load);
  w.PutU8(s.bootstrap_requested ? 1 : 0);
  w.PutU8(s.repartition_pending ? 1 : 0);
  w.PutU32(s.next_token);
  w.PutU64(s.repartitions_requested);
  w.PutU64(s.shrinks);
  w.PutU64(s.handoffs_routed);
  w.PutU64(s.handoff_entries_dropped);
  w.PutI64(s.cooldown_remaining);
  w.PutU64(s.docs_seen);
  w.PutU64(s.next_forced);
  w.PutU64(s.batch_count);
  w.PutU64(s.batch_notifications);
  w.PutU64(s.batch_per_calculator.size());
  for (const uint64_t v : s.batch_per_calculator) w.PutU64(v);
  w.PutU64(s.uncovered_counts.size());
  for (const auto& [tags, count] : s.uncovered_counts) {
    PutTagSet(&w, tags);
    w.PutI64(count);
  }
  return w.Take();
}

bool DecodeDisseminator(std::string_view payload, DisseminatorState* out) {
  ByteReader r(payload);
  uint8_t has_partitions = 0, bootstrap = 0, pending = 0;
  int64_t cooldown = 0;
  uint64_t batches = 0, uncovered = 0;
  if (!r.GetU8(&has_partitions) || !GetPartitionSet(&r, &out->partitions) ||
      !r.GetU32(&out->epoch) || !r.GetDouble(&out->ref_avg_com) ||
      !r.GetDouble(&out->ref_max_load) || !r.GetU8(&bootstrap) ||
      !r.GetU8(&pending) || !r.GetU32(&out->next_token) ||
      !r.GetU64(&out->repartitions_requested) || !r.GetU64(&out->shrinks) ||
      !r.GetU64(&out->handoffs_routed) ||
      !r.GetU64(&out->handoff_entries_dropped) || !r.GetI64(&cooldown) ||
      !r.GetU64(&out->docs_seen) || !r.GetU64(&out->next_forced) ||
      !r.GetU64(&out->batch_count) || !r.GetU64(&out->batch_notifications) ||
      !r.GetU64(&batches)) {
    return false;
  }
  out->has_partitions = has_partitions != 0;
  out->bootstrap_requested = bootstrap != 0;
  out->repartition_pending = pending != 0;
  out->cooldown_remaining = static_cast<int>(cooldown);
  out->batch_per_calculator.resize(static_cast<size_t>(batches));
  for (uint64_t i = 0; i < batches; ++i) {
    if (!r.GetU64(&out->batch_per_calculator[static_cast<size_t>(i)])) {
      return false;
    }
  }
  if (!r.GetU64(&uncovered)) return false;
  out->uncovered_counts.clear();
  out->uncovered_counts.reserve(static_cast<size_t>(uncovered));
  for (uint64_t i = 0; i < uncovered; ++i) {
    TagSet tags;
    int64_t count = 0;
    if (!GetTagSet(&r, &tags) || !r.GetI64(&count)) return false;
    out->uncovered_counts.emplace_back(std::move(tags),
                                       static_cast<int>(count));
  }
  return r.empty();
}

std::string EncodeMerger(const MergerState& s) {
  ByteWriter w;
  w.PutU8(s.has_master ? 1 : 0);
  PutPartitionSet(&w, s.master);
  w.PutU32(s.epoch);
  w.PutU64(s.single_additions);
  w.PutU64(s.grows);
  w.PutU8(s.had_pending_rounds ? 1 : 0);
  return w.Take();
}

bool DecodeMerger(std::string_view payload, MergerState* out) {
  ByteReader r(payload);
  uint8_t has_master = 0, pending = 0;
  if (!r.GetU8(&has_master) || !GetPartitionSet(&r, &out->master) ||
      !r.GetU32(&out->epoch) || !r.GetU64(&out->single_additions) ||
      !r.GetU64(&out->grows) || !r.GetU8(&pending)) {
    return false;
  }
  out->has_master = has_master != 0;
  out->had_pending_rounds = pending != 0;
  return r.empty();
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
  int value = 0;
  for (const char c : name.substr(prefix.size() + 1)) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + (c - '0');
  }
  *instance = value;
  return true;
}

}  // namespace

uint64_t PipelineConfigFingerprint(const PipelineConfig& config) {
  uint64_t h = 0x6372747261636b31ull;  // "crtrack1"
  h = Mix(h, static_cast<uint64_t>(config.algorithm));
  h = Mix(h, static_cast<uint64_t>(config.num_calculators));
  h = Mix(h, static_cast<uint64_t>(config.num_partitioners));
  h = MixDouble(h, config.repartition_threshold);
  h = Mix(h, static_cast<uint64_t>(config.single_addition_threshold));
  h = Mix(h, static_cast<uint64_t>(config.quality_batch_size));
  h = Mix(h, static_cast<uint64_t>(config.repartition_latency_docs));
  h = Mix(h, static_cast<uint64_t>(config.window_span));
  h = Mix(h, static_cast<uint64_t>(config.window_count));
  h = Mix(h, static_cast<uint64_t>(config.report_period));
  h = Mix(h, static_cast<uint64_t>(config.bootstrap_time));
  h = Mix(h, config.seed);
  h = Mix(h, config.target_docs_per_calculator);
  h = Mix(h, config.elastic.enabled ? 1 : 0);
  h = Mix(h, config.elastic.partition_overhead_load);
  h = Mix(h, static_cast<uint64_t>(config.elastic.min_partitions));
  h = Mix(h, static_cast<uint64_t>(config.elastic.max_partitions));
  h = MixDouble(h, config.elastic.resize_hysteresis);
  h = Mix(h, static_cast<uint64_t>(config.EffectiveMaxCalculators()));
  for (const uint64_t docs : config.forced_repartition_docs) h = Mix(h, docs);
  for (const int k : config.forced_k_schedule) {
    h = Mix(h, static_cast<uint64_t>(k));
  }
  h = Mix(h, static_cast<uint64_t>(config.tracker_merge));
  h = Mix(h, config.parser_extract_mentions ? 1 : 0);
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
    auto* bolt =
        static_cast<CalculatorBolt*>(runtime.bolt(handles.calculator, i));
    if (bolt == nullptr) continue;  // Pool spare slot never spawned.
    CalculatorState cs;
    bolt->ExportState(&cs);
    state.calculators.push_back(std::move(cs));
  }
  for (int i = 0; i < config.num_partitioners; ++i) {
    auto* bolt =
        static_cast<PartitionerBolt*>(runtime.bolt(handles.partitioner, i));
    if (bolt == nullptr) continue;
    PartitionerState ps;
    bolt->ExportState(&ps);
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
    auto* bolt =
        static_cast<CentralizedBolt*>(runtime.bolt(handles.centralized, 0));
    if (bolt != nullptr) {
      state.has_centralized = true;
      bolt->ExportState(&state.centralized);
    }
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
        {SectionName("calc", cs.instance), EncodeCalculator(cs)});
  }
  for (const PartitionerState& ps : state.partitioners) {
    data.sections.push_back(
        {SectionName("part", ps.instance), EncodePartitioner(ps)});
  }
  data.sections.push_back({"parser", EncodeParser(state.parser)});
  data.sections.push_back({"tracker", EncodeTracker(state.tracker)});
  data.sections.push_back({"dissem", EncodeDisseminator(state.disseminator)});
  data.sections.push_back({"merger", EncodeMerger(state.merger)});
  if (state.has_centralized) {
    data.sections.push_back({"central", EncodeCentralized(state.centralized)});
  }
  if (!state.serve_blob.empty()) {
    data.sections.push_back({"serve", state.serve_blob});
  }
  return data;
}

namespace {

/// Single refusal funnel so every malformed-section path names the section
/// that tripped it (checksums already passed at storage depth, so a decode
/// failure here means version skew or an encoder bug worth surfacing).
bool RefuseSection(const std::string& name) {
  CORRTRACK_LOG(kWarn, "checkpoint",
                "decode refused: malformed or unknown section \"%s\"",
                name.c_str());
  return false;
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
    int instance = -1;
    if (ParseInstance(section.name, "calc", &instance)) {
      CalculatorState cs;
      if (!DecodeCalculator(section.payload, &cs) || cs.instance != instance) {
        return RefuseSection(section.name);
      }
      out->calculators.push_back(std::move(cs));
    } else if (ParseInstance(section.name, "part", &instance)) {
      PartitionerState ps;
      if (!DecodePartitioner(section.payload, &ps) ||
          ps.instance != instance) {
        return RefuseSection(section.name);
      }
      out->partitioners.push_back(std::move(ps));
    } else if (section.name == "parser") {
      if (!DecodeParser(section.payload, &out->parser)) {
        return RefuseSection(section.name);
      }
    } else if (section.name == "tracker") {
      if (!DecodeTracker(section.payload, &out->tracker)) {
        return RefuseSection(section.name);
      }
    } else if (section.name == "dissem") {
      if (!DecodeDisseminator(section.payload, &out->disseminator)) {
        return RefuseSection(section.name);
      }
    } else if (section.name == "merger") {
      if (!DecodeMerger(section.payload, &out->merger)) {
        return RefuseSection(section.name);
      }
    } else if (section.name == "central") {
      if (!DecodeCentralized(section.payload, &out->centralized)) {
        return RefuseSection(section.name);
      }
      out->has_centralized = true;
    } else if (section.name == "serve") {
      out->serve_blob = section.payload;
    } else {
      return RefuseSection(section.name);  // Unknown: version skew, refuse.
    }
  }
  return true;
}

}  // namespace corrtrack::ops
