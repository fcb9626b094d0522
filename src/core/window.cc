#include "core/window.h"

#include "core/check.h"

namespace corrtrack {

SlidingWindow::SlidingWindow(Timestamp span) : span_(span) {
  CORRTRACK_CHECK_GT(span, 0);
}

void SlidingWindow::Add(const Document& doc) {
  CORRTRACK_CHECK_GE(doc.time, last_time_);
  last_time_ = doc.time;
  docs_.push_back(doc);
  EvictForTime(doc.time);
}

void SlidingWindow::AdvanceTo(Timestamp now) {
  if (now < last_time_) return;
  last_time_ = now;
  EvictForTime(now);
}

void SlidingWindow::EvictForTime(Timestamp now) {
  // Exclusive boundary: keep time > now - span, i.e. evict exactly when
  // now - time >= span. Written as an age comparison so a clock near the
  // Timestamp minimum cannot underflow a `now - span_` intermediate; ages
  // are differences of in-window times and always fit.
  while (!docs_.empty() && now - docs_.front().time >= span_) {
    docs_.pop_front();
  }
}

}  // namespace corrtrack
