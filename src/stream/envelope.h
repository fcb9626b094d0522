#ifndef CORRTRACK_STREAM_ENVELOPE_H_
#define CORRTRACK_STREAM_ENVELOPE_H_

#include <cstdint>
#include <utility>

#include "core/types.h"

namespace corrtrack::stream {

/// Identifies one task (operator instance) in a running topology: the
/// component it belongs to and its index among the component's instances.
struct TaskAddress {
  int component = -1;  // Index in topology declaration order.
  int instance = 0;    // [0, parallelism).

  friend bool operator==(const TaskAddress& a, const TaskAddress& b) {
    return a.component == b.component && a.instance == b.instance;
  }
};

/// A tuple in flight: the payload plus the metadata Storm attaches —
/// source task and, in our virtual-time engine, the emission timestamp.
///
/// Every envelope owns its message by value: one emission fanned out to k
/// destinations gives k - 1 of them a copy and moves the message into the
/// last (RouteAlongEdges), so no payload memory is shared between tasks or
/// threads. A message type that broadcasts bulk keeps it behind a
/// shared_ptr<const T> (see ops/messages.h). Bolts read through payload();
/// a consumer that takes the value apart (a relay moving its message on
/// instead of copying it) goes through MutablePayload().
template <typename Message>
class Envelope {
 public:
  TaskAddress source;
  Timestamp time = 0;

  Envelope() = default;
  explicit Envelope(Message payload) : payload_(std::move(payload)) {}

  const Message& payload() const { return payload_; }

  /// This envelope's own message. Const because bolts receive the
  /// envelope by const reference; no other envelope can observe the
  /// change, since none shares the value.
  Message& MutablePayload() const { return payload_; }

  void set_payload(Message msg) { payload_ = std::move(msg); }

 private:
  mutable Message payload_{};
};

}  // namespace corrtrack::stream

#endif  // CORRTRACK_STREAM_ENVELOPE_H_
