#ifndef CORRTRACK_CORE_WINDOW_H_
#define CORRTRACK_CORE_WINDOW_H_

#include <deque>
#include <limits>

#include "core/document.h"
#include "core/types.h"

namespace corrtrack {

/// Time-based sliding window over the document stream (§3.2, cf. Krämer &
/// Seeger [14]), e.g. the last 5 minutes of tweets. Documents must be added
/// in non-decreasing timestamp order; equal timestamps are allowed and
/// evicted together.
///
/// Boundary contract (pinned by window_test.cc): the window keeps
/// exactly the documents with time > now - span — a document whose age
/// reaches the span is evicted, *including* one sitting exactly at the
/// boundary — and Add(doc) and AdvanceTo(doc.time) agree on that boundary,
/// so advancing the clock to a timestamp evicts the same documents as
/// adding a document there would.
class SlidingWindow {
 public:
  /// Requires `span` > 0.
  explicit SlidingWindow(Timestamp span);

  /// Appends `doc` and evicts documents that fall out of the window: it
  /// keeps documents with time > doc.time - span.
  void Add(const Document& doc);

  /// Evicts for a clock advanced without new documents.
  void AdvanceTo(Timestamp now);

  size_t size() const { return docs_.size(); }
  bool empty() const { return docs_.empty(); }

  /// Oldest-first iteration.
  std::deque<Document>::const_iterator begin() const { return docs_.begin(); }
  std::deque<Document>::const_iterator end() const { return docs_.end(); }

  Timestamp span() const { return span_; }

 private:
  void EvictForTime(Timestamp now);

  Timestamp span_;
  Timestamp last_time_ = std::numeric_limits<Timestamp>::min();
  std::deque<Document> docs_;
};

}  // namespace corrtrack

#endif  // CORRTRACK_CORE_WINDOW_H_
