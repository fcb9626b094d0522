#include "exp/metrics.h"

#include <algorithm>

#include "core/check.h"
#include "core/stats.h"

namespace corrtrack::exp {

MetricsCollector::MetricsCollector(int num_calculators,
                                   uint64_t series_stride,
                                   int initial_calculators)
    : series_stride_(series_stride),
      per_calculator_(static_cast<size_t>(num_calculators), 0),
      current_calculators_(initial_calculators > 0 ? initial_calculators
                                                   : num_calculators),
      peak_calculators_(current_calculators_),
      segment_per_calculator_(static_cast<size_t>(num_calculators), 0) {
  CORRTRACK_CHECK_GT(num_calculators, 0);
  CORRTRACK_CHECK_GT(series_stride, 0u);
}

void MetricsCollector::OnRouted(int notified, Timestamp /*time*/) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++docs_routed_;
  ++segment_docs_;
  if (notified > 0) {
    ++notified_docs_;
    ++segment_notified_;
    total_notifications_ += static_cast<uint64_t>(notified);
    segment_notifications_ += static_cast<uint64_t>(notified);
  }
  if (segment_docs_ >= series_stride_) FlushSegment();
}

void MetricsCollector::FlushSegment() {
  SeriesSample sample;
  sample.docs_processed = docs_routed_;
  sample.avg_communication =
      segment_notified_ > 0
          ? static_cast<double>(segment_notifications_) /
                static_cast<double>(segment_notified_)
          : 0.0;
  uint64_t total = 0;
  for (uint64_t c : segment_per_calculator_) total += c;
  sample.sorted_loads.reserve(segment_per_calculator_.size());
  for (uint64_t c : segment_per_calculator_) {
    sample.sorted_loads.push_back(
        total > 0 ? static_cast<double>(c) / static_cast<double>(total)
                  : 0.0);
  }
  std::sort(sample.sorted_loads.begin(), sample.sorted_loads.end(),
            std::greater<>());
  sample.repartitions = segment_repartitions_;
  sample.active_calculators = current_calculators_;
  series_.push_back(std::move(sample));
  ResetSegment();
}

void MetricsCollector::OnNotification(int calculator) {
  std::lock_guard<std::mutex> lock(mutex_);
  CORRTRACK_CHECK_GE(calculator, 0);
  // The collector is sized to the provisioned maximum (the driver passes
  // EffectiveMaxCalculators), which also bounds every elastic resize — an
  // id past it is a routing bug, not a bigger topology.
  CORRTRACK_CHECK_LT(static_cast<size_t>(calculator), per_calculator_.size());
  ++per_calculator_[static_cast<size_t>(calculator)];
  ++segment_per_calculator_[static_cast<size_t>(calculator)];
}

void MetricsCollector::OnRepartitionRequested(uint8_t cause, Timestamp time) {
  std::lock_guard<std::mutex> lock(mutex_);
  RepartitionEvent event;
  event.time = time;
  event.docs_processed = docs_routed_;
  event.cause = cause;
  repartitions_.push_back(event);
  ++segment_repartitions_;
}

void MetricsCollector::OnPartitionsInstalled(Epoch epoch, double /*avg_com*/,
                                             double /*max_load*/,
                                             Timestamp time) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++installs_;
  if (epoch > max_epoch_) max_epoch_ = epoch;
  if (first_install_time_ < 0) first_install_time_ = time;
}

void MetricsCollector::OnTopologyResize(Epoch epoch, int old_k, int new_k,
                                        Timestamp time) {
  std::lock_guard<std::mutex> lock(mutex_);
  TopologyResizeEvent event;
  event.epoch = epoch;
  event.old_k = old_k;
  event.new_k = new_k;
  event.time = time;
  event.docs_processed = docs_routed_;
  resizes_.push_back(event);
  current_calculators_ = new_k;
  peak_calculators_ = std::max(peak_calculators_, new_k);
}

void MetricsCollector::OnSingleAddition(Timestamp /*time*/) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++single_additions_;
}

double MetricsCollector::AvgCommunication() const {
  if (notified_docs_ == 0) return 0.0;
  return static_cast<double>(total_notifications_) /
         static_cast<double>(notified_docs_);
}

double MetricsCollector::LoadGini() const {
  return GiniCoefficient(per_calculator_);
}

double MetricsCollector::MaxLoadShare() const {
  return MaxShare(per_calculator_);
}

uint64_t MetricsCollector::CountRepartitions(
    uint8_t cause_mask_equals) const {
  uint64_t n = 0;
  for (const RepartitionEvent& event : repartitions_) {
    if (event.cause == cause_mask_equals) ++n;
  }
  return n;
}

void MetricsCollector::FinishSeries() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (segment_docs_ == 0) return;
  FlushSegment();
}

void MetricsCollector::ResetSegment() {
  segment_docs_ = 0;
  segment_notified_ = 0;
  segment_notifications_ = 0;
  std::fill(segment_per_calculator_.begin(), segment_per_calculator_.end(),
            0);
  segment_repartitions_ = 0;
}

}  // namespace corrtrack::exp
