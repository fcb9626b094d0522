#ifndef CORRTRACK_STREAM_SIMULATION_H_
#define CORRTRACK_STREAM_SIMULATION_H_

#include <algorithm>
#include <deque>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "core/check.h"
#include "core/types.h"
#include "stream/envelope.h"
#include "stream/routing.h"
#include "stream/runtime.h"
#include "stream/topology.h"
#include "telemetry/registry.h"

namespace corrtrack::stream {

/// Deterministic discrete-event executor for a Topology.
///
/// Semantics:
///  * The spout is pulled one tuple at a time; each tuple's cascade (all
///    transitively triggered bolt executions) drains fully, in global FIFO
///    order, before the next spout tuple is injected. Per-edge tuple order
///    is therefore exactly the emission order, as in a single-worker Storm
///    deployment with ordered queues.
///  * Virtual time is the spout's timestamp stream; tuples emitted inside a
///    cascade inherit the current virtual time.
///  * Tick callbacks fire between cascades: before a spout tuple with
///    time >= boundary is injected, every task whose component declared a
///    tick period receives OnTick(boundary) for each elapsed boundary, in
///    (boundary, task id) order.
///  * Shuffle grouping is a per-edge round-robin: uniform like Storm's
///    randomised shuffle, but reproducible.
///
/// The engine is single-threaded; see pool_runtime.h for the concurrent
/// executor with identical wiring.
template <typename Message>
class SimulationRuntime : public Runtime<Message> {
 public:
  explicit SimulationRuntime(Topology<Message>* topology,
                             const RuntimeOptions& options = {})
      : topology_(topology), start_time_(options.start_time) {
    // Queue/thread knobs are meaningless here; start_time is honoured so a
    // checkpoint-restored topology resumes its tick schedule mid-period
    // instead of replaying every boundary since virtual time zero.
    CORRTRACK_CHECK(topology != nullptr);
    if (options.metrics != nullptr) {
      // The global pending deque is the simulator's only "queue": its depth
      // distribution shows how deep cascades run per injected tuple.
      queue_depth_hist_ = options.metrics->GetHistogram(
          "runtime_queue_depth{runtime=\"simulation\"}");
    }
    now_ = start_time_;
    Build();
  }

  SimulationRuntime(const SimulationRuntime&) = delete;
  SimulationRuntime& operator=(const SimulationRuntime&) = delete;

  /// Runs the spout to exhaustion. After the last tuple, tick boundaries up
  /// to (last timestamp + flush_horizon) still fire, so periodic reporters
  /// can flush. Can only be called once.
  void Run(Timestamp flush_horizon) override {
    CORRTRACK_CHECK(!ran_);
    ran_ = true;
    Spout<Message>* spout = FindSpout();
    Message msg;
    Timestamp time = 0;
    // An empty stream's "last timestamp" is the resume point: a restored
    // drain-only run still fires its flush-horizon ticks past the cut.
    Timestamp last_time = start_time_;
    while (spout->Next(&msg, &time)) {
      CORRTRACK_CHECK_GE(time, last_time);
      last_time = time;
      FireTicksUpTo(time);
      now_ = time;
      RouteFrom({spout_component_, 0}, std::move(msg), time,
                /*direct_instance=*/-1);
      Pump();
    }
    FireTicksUpTo(last_time + flush_horizon);
  }
  using Runtime<Message>::Run;

  /// Number of tuples delivered to (executed by) the component's bolts.
  uint64_t TuplesDelivered(int component) const override {
    CORRTRACK_CHECK_GE(component, 0);
    CORRTRACK_CHECK_LT(static_cast<size_t>(component), delivered_.size());
    return delivered_[static_cast<size_t>(component)];
  }

  /// The live bolt instance for (component, instance); callers downcast to
  /// the concrete operator type they installed.
  Bolt<Message>* bolt(int component, int instance) override {
    const int task = TaskId(component, instance);
    return tasks_[static_cast<size_t>(task)].bolt.get();
  }

  RuntimeKind kind() const override { return RuntimeKind::kSimulation; }

  RuntimeStats stats() const override {
    RuntimeStats stats;
    stats.num_threads = 1;
    for (uint64_t delivered : delivered_) stats.envelopes_moved += delivered;
    stats.tasks_spawned = tasks_spawned_;
    stats.tasks_retired = tasks_retired_;
    return stats;
  }

  // TopologyControl: the pre-provisioned max-k instances exist from Build;
  // the active count is a routing mask over them (see runtime.h).
  int ActiveParallelism(int component) const override {
    return active_[static_cast<size_t>(component)];
  }

  int MaxParallelism(int component) const override {
    return topology_->components()[static_cast<size_t>(component)]
        .max_instances();
  }

  int ResizeComponent(int component, int target_parallelism) override {
    const int max = MaxParallelism(component);
    const int next = std::clamp(target_parallelism, 1, max);
    int& active = active_[static_cast<size_t>(component)];
    if (next > active) {
      tasks_spawned_ += static_cast<uint64_t>(next - active);
    } else {
      tasks_retired_ += static_cast<uint64_t>(active - next);
    }
    active = next;
    return next;
  }

  Timestamp now() const { return now_; }

 private:
  struct Task {
    TaskAddress addr;
    std::unique_ptr<Bolt<Message>> bolt;  // Null for the spout's task.
    Timestamp next_tick = 0;              // 0 = no ticks.
  };

  class EmitterImpl : public Emitter<Message> {
   public:
    EmitterImpl(SimulationRuntime* runtime, TaskAddress source,
                Timestamp time)
        : runtime_(runtime), source_(source), time_(time) {}

    void Emit(Message msg) override {
      runtime_->RouteFrom(source_, std::move(msg), time_, -1);
    }

    void EmitDirect(int instance, Message msg) override {
      runtime_->RouteFrom(source_, std::move(msg), time_, instance);
    }

    Timestamp now() const override { return time_; }

   private:
    SimulationRuntime* runtime_;
    TaskAddress source_;
    Timestamp time_;
  };

  void Build() {
    const auto& components = topology_->components();
    task_base_.resize(components.size());
    delivered_.assign(components.size(), 0);
    active_.resize(components.size());
    edges_ = BuildEdgeLists<Message>(components);
    for (size_t c = 0; c < components.size(); ++c) {
      const auto& comp = components[c];
      task_base_[c] = static_cast<int>(tasks_.size());
      active_[c] = comp.parallelism;
      if (comp.is_spout) {
        CORRTRACK_CHECK_EQ(comp.parallelism, 1);
        CORRTRACK_CHECK_EQ(spout_component_, -1);
        spout_component_ = static_cast<int>(c);
        Task task;
        task.addr = {static_cast<int>(c), 0};
        tasks_.push_back(std::move(task));
        continue;
      }
      // Every provisioned instance is built up front (activation-mask
      // elasticity, see TopologyControl in runtime.h): the simulator stays
      // bit-repeatable because construction order never depends on the
      // resize history.
      for (int i = 0; i < comp.max_instances(); ++i) {
        Task task;
        task.addr = {static_cast<int>(c), i};
        task.bolt = comp.bolt_factory(i);
        CORRTRACK_CHECK(task.bolt != nullptr);
        task.bolt->Prepare(task.addr, comp.parallelism);
        task.bolt->AttachControl(this);
        task.next_tick = FirstTickAfter(comp.tick_period, start_time_);
        tasks_.push_back(std::move(task));
      }
    }
    CORRTRACK_CHECK_NE(spout_component_, -1);
  }

  Spout<Message>* FindSpout() {
    return topology_->mutable_components()[static_cast<size_t>(
        spout_component_)].spout.get();
  }

  int TaskId(int component, int instance) const {
    CORRTRACK_CHECK_GE(component, 0);
    CORRTRACK_CHECK_LT(static_cast<size_t>(component), task_base_.size());
    const auto& comp =
        topology_->components()[static_cast<size_t>(component)];
    CORRTRACK_CHECK_GE(instance, 0);
    CORRTRACK_CHECK_LT(instance, comp.max_instances());
    return task_base_[static_cast<size_t>(component)] + instance;
  }

  /// Routing fan-out: the *active* instance count (elastic mask).
  int Parallelism(int component) const {
    return active_[static_cast<size_t>(component)];
  }

  /// Queues `msg`, emitted by `source`, for every destination along the
  /// source's edges (see RouteAlongEdges for `direct_instance`).
  void RouteFrom(TaskAddress source, Message msg, Timestamp time,
                 int direct_instance) {
    RouteAlongEdges(
        edges_[static_cast<size_t>(source.component)], std::move(msg),
        direct_instance,
        [this](int component) { return Parallelism(component); },
        [&](int component, int target, Message&& payload) {
          Envelope<Message> env(std::move(payload));
          env.source = source;
          env.time = time;
          pending_.emplace_back(TaskId(component, target), std::move(env));
          if (queue_depth_hist_ != nullptr) {
            queue_depth_hist_->Record(pending_.size());
          }
        });
  }

  /// Drains the cascade in global FIFO order.
  void Pump() {
    while (!pending_.empty()) {
      auto [task_id, env] = std::move(pending_.front());
      pending_.pop_front();
      Task& task = tasks_[static_cast<size_t>(task_id)];
      ++delivered_[static_cast<size_t>(task.addr.component)];
      EmitterImpl emitter(this, task.addr, env.time);
      task.bolt->Execute(env, emitter);
    }
  }

  /// Fires every due tick with boundary <= horizon, in (boundary, task)
  /// order, draining each tick's cascade before the next.
  void FireTicksUpTo(Timestamp horizon) {
    while (true) {
      Timestamp earliest = std::numeric_limits<Timestamp>::max();
      for (const Task& task : tasks_) {
        if (task.next_tick > 0 && task.next_tick < earliest) {
          earliest = task.next_tick;
        }
      }
      if (earliest == std::numeric_limits<Timestamp>::max() ||
          earliest > horizon) {
        return;
      }
      for (Task& task : tasks_) {
        if (task.next_tick != earliest) continue;
        const Timestamp period =
            topology_->components()[static_cast<size_t>(task.addr.component)]
                .tick_period;
        task.next_tick += period;
        now_ = earliest;
        EmitterImpl emitter(this, task.addr, earliest);
        task.bolt->OnTick(earliest, emitter);
        Pump();
      }
    }
  }

  Topology<Message>* topology_;
  int spout_component_ = -1;
  std::vector<Task> tasks_;
  std::vector<int> task_base_;
  std::vector<int> active_;  // Live instances per component (routing mask).
  std::vector<EdgeList<Message>> edges_;
  std::deque<std::pair<int, Envelope<Message>>> pending_;
  std::vector<uint64_t> delivered_;
  telemetry::LatencyHistogram* queue_depth_hist_ = nullptr;
  Timestamp now_ = 0;
  Timestamp start_time_ = 0;  // Resume point (checkpoint restore).
  bool ran_ = false;
  uint64_t tasks_spawned_ = 0;
  uint64_t tasks_retired_ = 0;
};

}  // namespace corrtrack::stream

#endif  // CORRTRACK_STREAM_SIMULATION_H_
