#ifndef CORRTRACK_OPS_PARSER_H_
#define CORRTRACK_OPS_PARSER_H_

#include <algorithm>
#include <cctype>
#include <string>
#include <string_view>
#include <vector>

#include "core/check.h"
#include "core/tag_dictionary.h"
#include "ops/checkpoint_state.h"
#include "ops/messages.h"
#include "stream/topology.h"
#include "telemetry/clock.h"
#include "telemetry/pipeline_telemetry.h"

namespace corrtrack::ops {

/// Parser bolt (§6.2): extracts the hashtags of each incoming tweet and
/// emits (timestamp_i, s_i). The tagset could be enriched with named
/// entities / locations / sentiment; hashtags are what the evaluation uses.
///
/// Each instance owns its TagDictionary; the evaluated configurations use
/// one Parser ("All configurations use one Parser and one Disseminator",
/// §8.2), so ids are globally consistent.
class ParserBolt : public stream::Bolt<Message> {
 public:
  explicit ParserBolt(telemetry::PipelineTelemetry* telemetry = nullptr)
      : telemetry_(telemetry) {}

  void Execute(const stream::Envelope<Message>& in,
               stream::Emitter<Message>& out) override {
    const auto* raw = std::get_if<RawTweet>(&in.payload());
    if (raw == nullptr) return;
    // Sample *raw* documents (before the tag filter) so the 1-in-N cadence
    // is deterministic in arrival order regardless of tag density.
    const uint64_t trace_id =
        telemetry_ != nullptr ? telemetry_->sampler.Next() : 0;
    const int64_t t0 = trace_id != 0 ? telemetry::MonotonicNanos() : 0;
    if (telemetry_ != nullptr) telemetry_->docs_parsed->Increment();
    const size_t interned = dictionary_.size();
    // The tagset is built in place in a reused scratch vector: no heap
    // traffic per document once the scratch has grown.
    tags_scratch_.clear();
    AppendTags(raw->text, &tags_scratch_);
    if (tags_scratch_.empty()) return;  // Untagged tweets add nothing (§1.1).
    std::sort(tags_scratch_.begin(), tags_scratch_.end());
    tags_scratch_.erase(
        std::unique(tags_scratch_.begin(), tags_scratch_.end()),
        tags_scratch_.end());
    if (tags_scratch_.size() > static_cast<size_t>(kMaxTagsPerDocument)) {
      // Subset enumeration cannot take the document. Dropping it leaves no
      // trace: the tags it alone introduced are forgotten, so later tags
      // get the ids they would have had without it.
      dictionary_.Truncate(interned);
      if (telemetry_ != nullptr) {
        telemetry_->docs_rejected_too_many_tags->Increment();
      }
      return;
    }
    ParsedDoc parsed;
    parsed.doc.id = raw->id;
    parsed.doc.time = raw->time;
    parsed.doc.tags = TagSet::FromSorted(
        tags_scratch_.data(), tags_scratch_.data() + tags_scratch_.size());
    if (telemetry_ != nullptr && dictionary_.size() != interned) {
      telemetry_->tag_dictionary_size->Set(
          static_cast<double>(dictionary_.size()));
    }
    if (trace_id != 0) {
      telemetry_->docs_sampled->Increment();
      const int64_t now = telemetry::MonotonicNanos();
      telemetry_->parser_proc->Record(telemetry::SpanMicros(t0, now));
      parsed.trace.trace_id = trace_id;
      parsed.trace.origin_wall_ns = t0;
      parsed.trace.hop_wall_ns = now;
      parsed.trace.origin_virtual = raw->time;
    }
    out.Emit(Message(std::move(parsed)));
  }

  /// Tokenises `text` and interns every "#tag" (letters, digits and '_'
  /// after the '#'). Returns the ids in text order, duplicates kept.
  std::vector<TagId> ExtractTags(std::string_view text) {
    std::vector<TagId> tags;
    AppendTags(text, &tags);
    return tags;
  }

  const TagDictionary& dictionary() const { return dictionary_; }

  /// Checkpointing (ops/checkpoint_state.h): the dictionary's names in id
  /// order — TagIds are first-arrival dense, so order is the whole state.
  void ExportState(ParserState* out) const {
    out->tags.clear();
    out->tags.reserve(dictionary_.size());
    for (size_t id = 0; id < dictionary_.size(); ++id) {
      out->tags.emplace_back(dictionary_.Name(static_cast<TagId>(id)));
    }
  }

  /// Replays the interning order into a freshly built bolt. The id check
  /// holds by construction (empty dictionary, duplicate-free export).
  void RestoreState(const ParserState& state) {
    CORRTRACK_CHECK_EQ(dictionary_.size(), 0u);
    for (size_t id = 0; id < state.tags.size(); ++id) {
      CORRTRACK_CHECK_EQ(
          static_cast<size_t>(dictionary_.GetOrAdd(state.tags[id])), id);
    }
    if (telemetry_ != nullptr) {
      telemetry_->tag_dictionary_size->Set(
          static_cast<double>(dictionary_.size()));
    }
  }

 private:
  /// The tokenizer behind ExtractTags: appends to `*tags`.
  void AppendTags(std::string_view text, std::vector<TagId>* tags) {
    size_t i = 0;
    while (i < text.size()) {
      if (text[i] != '#') {
        ++i;
        continue;
      }
      size_t j = i + 1;
      while (j < text.size() && (std::isalnum(static_cast<unsigned char>(
                                     text[j])) != 0 ||
                                 text[j] == '_')) {
        ++j;
      }
      if (j > i + 1) {
        tags->push_back(dictionary_.GetOrAdd(text.substr(i + 1, j - i - 1)));
      }
      i = j;
    }
  }

  telemetry::PipelineTelemetry* telemetry_;  // Null = no instrumentation.
  TagDictionary dictionary_;
  std::vector<TagId> tags_scratch_;  // Execute's tagset under construction.
};

}  // namespace corrtrack::ops

#endif  // CORRTRACK_OPS_PARSER_H_
