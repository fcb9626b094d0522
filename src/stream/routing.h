#ifndef CORRTRACK_STREAM_ROUTING_H_
#define CORRTRACK_STREAM_ROUTING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/check.h"
#include "stream/grouping.h"

namespace corrtrack::stream {

/// One inverted subscription edge (producer -> consumer) as the runtimes
/// execute it. The shuffle round-robin cursor is shared by every producer
/// instance of the edge; atomic so the pool runtime can route from
/// any thread (the simulator's single thread pays nothing for it).
template <typename Message>
struct RoutingEdge {
  int consumer = -1;  // Component id.
  Grouping<Message> grouping;
  std::atomic<uint64_t> round_robin{0};
};

template <typename Message>
using EdgeList = std::vector<std::unique_ptr<RoutingEdge<Message>>>;

/// Most envelopes staged per destination before a mailbox hand-off — the
/// pool runtime's batched lock-coalescing convention. A lane goes to its
/// mailbox once it holds this many, when the slice that staged it ends,
/// or, for the spout thread, at once while no pool worker runs a slice.
inline constexpr size_t kQueueBatch = 64;

/// Consecutive no-progress full-queue rounds (1 ms bounded waits) before a
/// pusher spills over capacity — the pool runtime's bounded-stall
/// overflow escape. Two tasks blocked pushing at each other's full queues
/// — e.g. the Disseminator->Merger feedback edge against the
/// Merger->Disseminator install broadcasts, both backed up — can make no
/// progress under strict blocking; after ~64 ms without progress the
/// pusher spills, trading transient over-capacity on one edge for
/// deadlock freedom. Escapes are counted in RuntimeStats::stall_escapes.
inline constexpr int kStallEscapeRounds = 64;

/// Per-producer-thread staging area of the pool runtime: envelopes headed
/// to each destination task accumulate in a lane of at most kQueueBatch
/// and are moved to the task's mailbox when it fills, when the producing
/// slice ends, or — for the spout thread — while no worker runs a slice.
/// Not synchronised: one thread uses it at a time (a worker flushes the
/// spout thread's buffer only under the pool's spout mutex).
/// `staged` is 1 while the task id is in `dirty`, keeping `dirty` bounded
/// by the task count even when a lane fills and flushes mid-run.
template <typename Item>
struct StagingBuffer {
  explicit StagingBuffer(size_t num_tasks)
      : per_task(num_tasks), staged(num_tasks, 0) {}

  std::vector<std::vector<Item>> per_task;
  std::vector<char> staged;
  std::vector<int> dirty;  // Task ids touched since the last flush.
};

/// Per-task poison counts for the pool runtime's forward-poison shutdown
/// contract: every consumer instance awaits one poison per *task*
/// (producer instance) of each forward edge (producer declared before
/// consumer) — each producer instance floods its own poison when it
/// drains. Feedback edges are excluded from the accounting, or the cycle
/// could never drain. Counts cover every *provisioned* instance
/// (Component::max_instances) — elastic components flood and await poisons
/// for inactive instances too, so shutdown is independent of the resize
/// history. Returns counts indexed by task id
/// (task_base[component] + instance); spout tasks stay 0.
template <typename Components>
std::vector<int> ComputeUpstreamPoisonCounts(const Components& components,
                                             const std::vector<int>& task_base,
                                             size_t num_tasks) {
  std::vector<int> counts(num_tasks, 0);
  for (size_t c = 0; c < components.size(); ++c) {
    for (const auto& sub : components[c].subscriptions) {
      if (sub.producer >= static_cast<int>(c)) continue;
      const auto& producer = components[static_cast<size_t>(sub.producer)];
      const int producer_tasks =
          producer.is_spout ? 1 : producer.max_instances();
      for (int i = 0; i < components[c].max_instances(); ++i) {
        counts[static_cast<size_t>(task_base[c] + i)] += producer_tasks;
      }
    }
  }
  return counts;
}

/// Inverts a topology's subscriptions into per-producer edge lists
/// (edges[producer] = every edge leaving it), the layout every runtime
/// routes from.
template <typename Message, typename Components>
std::vector<EdgeList<Message>> BuildEdgeLists(const Components& components) {
  std::vector<EdgeList<Message>> edges(components.size());
  for (size_t c = 0; c < components.size(); ++c) {
    for (const auto& sub : components[c].subscriptions) {
      auto edge = std::make_unique<RoutingEdge<Message>>();
      edge->consumer = static_cast<int>(c);
      edge->grouping = sub.grouping;
      edges[static_cast<size_t>(sub.producer)].push_back(std::move(edge));
    }
  }
  return edges;
}

/// Dispatches one emission along a producer's edges — the single
/// definition of the grouping semantics (§6.1) all runtimes share, so the
/// substrates cannot drift apart. `direct_instance` >= 0 marks an
/// EmitDirect (only kDirect edges see it; plain emissions skip them).
/// `parallelism(component)` supplies the consumer's instance count and
/// `deliver(component, instance, Message&&)` enqueues one envelope; the
/// caller owns envelope construction and queueing. Envelopes own their
/// message, so every destination but the last is handed a copy and the
/// last gets `msg` moved in: the common single-destination hop copies
/// nothing.
template <typename Message, typename ParallelismFn, typename DeliverFn>
void RouteAlongEdges(EdgeList<Message>& edges, Message msg,
                     int direct_instance, ParallelismFn&& parallelism,
                     DeliverFn&& deliver) {
  // The latest destination is held back until the next one is known, so
  // only the final one receives the moved message.
  int held_component = -1;
  int held_instance = 0;
  auto route = [&](int component, int instance) {
    if (held_component >= 0) {
      deliver(held_component, held_instance, Message(msg));
    }
    held_component = component;
    held_instance = instance;
  };
  for (auto& edge : edges) {
    const bool is_direct_edge = edge->grouping.kind == GroupingKind::kDirect;
    if (is_direct_edge != (direct_instance >= 0)) continue;
    // Per-stream subscription: a filtered edge never sees (or copies)
    // tuples it rejects. Poison/shutdown markers bypass this path.
    if (edge->grouping.filter != nullptr && !edge->grouping.filter(msg)) {
      continue;
    }
    switch (edge->grouping.kind) {
      case GroupingKind::kShuffle: {
        const uint64_t n =
            edge->round_robin.fetch_add(1, std::memory_order_relaxed);
        route(edge->consumer,
              static_cast<int>(n % static_cast<uint64_t>(
                                       parallelism(edge->consumer))));
        break;
      }
      case GroupingKind::kAll:
        for (int i = 0; i < parallelism(edge->consumer); ++i) {
          route(edge->consumer, i);
        }
        break;
      case GroupingKind::kFields: {
        CORRTRACK_CHECK(edge->grouping.field_hash != nullptr);
        const size_t h = edge->grouping.field_hash(msg);
        route(edge->consumer,
              static_cast<int>(h % static_cast<size_t>(
                                       parallelism(edge->consumer))));
        break;
      }
      case GroupingKind::kGlobal:
        route(edge->consumer, 0);
        break;
      case GroupingKind::kDirect:
        route(edge->consumer, direct_instance);
        break;
    }
  }
  if (held_component >= 0) {
    deliver(held_component, held_instance, std::move(msg));
  }
}

}  // namespace corrtrack::stream

#endif  // CORRTRACK_STREAM_ROUTING_H_
