#ifndef CORRTRACK_STREAM_TOPOLOGY_H_
#define CORRTRACK_STREAM_TOPOLOGY_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/check.h"
#include "core/types.h"
#include "stream/envelope.h"
#include "stream/grouping.h"

namespace corrtrack::stream {

class TopologyControl;  // runtime.h: dynamic-topology control surface.

/// Sink through which a bolt/spout emits tuples. Provided by the runtime;
/// `now()` is the current virtual time.
template <typename Message>
class Emitter {
 public:
  virtual ~Emitter() = default;

  /// Emits to all subscribers according to their groupings. Subscribers with
  /// kDirect grouping ignore plain emissions.
  virtual void Emit(Message msg) = 0;

  /// Emits to subscribers with kDirect grouping, targeting their given
  /// instance. Non-direct subscribers ignore direct emissions (as in Storm,
  /// where direct streams are declared separately).
  virtual void EmitDirect(int instance, Message msg) = 0;

  virtual Timestamp now() const = 0;
};

/// A bolt: consumes tuples, emits tuples (§6.1). One instance per task;
/// instances share nothing and may keep arbitrary state.
template <typename Message>
class Bolt {
 public:
  virtual ~Bolt() = default;

  /// Called once before any tuple, with this instance's address and the
  /// component's parallelism.
  virtual void Prepare(TaskAddress self, int parallelism) {
    (void)self;
    (void)parallelism;
  }

  /// Called once (after Prepare, before any tuple) with the runtime's
  /// dynamic-topology control surface. Most bolts ignore it; the elastic
  /// install protocol's participants (Merger, Disseminator) keep it to
  /// resize the Calculator set at run time.
  virtual void AttachControl(TopologyControl* control) { (void)control; }

  /// Called for every incoming tuple.
  virtual void Execute(const Envelope<Message>& in, Emitter<Message>& out) = 0;

  /// Called when virtual time crosses a tick boundary (the component must
  /// have been registered with a tick period). `tick_time` is the boundary,
  /// which may lag the emitting clock by less than one period.
  virtual void OnTick(Timestamp tick_time, Emitter<Message>& out) {
    (void)tick_time;
    (void)out;
  }
};

/// A spout: the source of the stream. Single-instance in this engine.
template <typename Message>
class Spout {
 public:
  virtual ~Spout() = default;

  /// Produces the next tuple and its virtual timestamp (non-decreasing).
  /// Returns false when the stream is exhausted.
  virtual bool Next(Message* out, Timestamp* time) = 0;
};

/// Static description of a topology (Fig. 2): components, parallelism and
/// subscription edges. Runtimes (simulation.h, pool_runtime.h) execute
/// it.
template <typename Message>
class Topology {
 public:
  using BoltFactory = std::function<std::unique_ptr<Bolt<Message>>(int)>;

  struct Subscription {
    int producer;  // Component id.
    Grouping<Message> grouping;
  };

  struct Component {
    std::string name;
    bool is_spout = false;
    std::unique_ptr<Spout<Message>> spout;  // When is_spout.
    BoltFactory bolt_factory;               // When !is_spout.
    int parallelism = 1;
    /// Provisioned instance ceiling for elastic resize
    /// (TopologyControl::ResizeComponent); 0 = parallelism (static).
    int max_parallelism = 0;
    Timestamp tick_period = 0;  // 0 = no ticks.
    std::vector<Subscription> subscriptions;

    /// Instances a runtime provisions for this component (>= parallelism).
    int max_instances() const {
      return max_parallelism > parallelism ? max_parallelism : parallelism;
    }
  };

  /// Adds the stream source. Returns its component id.
  int AddSpout(std::string name, std::unique_ptr<Spout<Message>> spout) {
    CORRTRACK_CHECK(spout != nullptr);
    Component c;
    c.name = std::move(name);
    c.is_spout = true;
    c.spout = std::move(spout);
    components_.push_back(std::move(c));
    return static_cast<int>(components_.size()) - 1;
  }

  /// Adds a bolt with `parallelism` instances; `factory(i)` builds instance
  /// i. `tick_period` > 0 requests OnTick callbacks on that virtual-time
  /// period. Returns the component id.
  int AddBolt(std::string name, BoltFactory factory, int parallelism,
              Timestamp tick_period = 0) {
    CORRTRACK_CHECK(factory != nullptr);
    CORRTRACK_CHECK_GT(parallelism, 0);
    Component c;
    c.name = std::move(name);
    c.bolt_factory = std::move(factory);
    c.parallelism = parallelism;
    c.tick_period = tick_period;
    components_.push_back(std::move(c));
    return static_cast<int>(components_.size()) - 1;
  }

  /// Raises the provisioned instance ceiling of a bolt component: runtimes
  /// build `max_parallelism` instances, of which `parallelism` start
  /// active; the rest can be activated at run time through
  /// TopologyControl::ResizeComponent.
  void SetMaxParallelism(int component, int max_parallelism) {
    CORRTRACK_CHECK_GE(component, 0);
    CORRTRACK_CHECK_LT(static_cast<size_t>(component), components_.size());
    Component& c = components_[static_cast<size_t>(component)];
    CORRTRACK_CHECK(!c.is_spout);
    CORRTRACK_CHECK_GE(max_parallelism, c.parallelism);
    c.max_parallelism = max_parallelism;
  }

  /// Subscribes `consumer` (a bolt) to tuples of `producer`.
  void Subscribe(int consumer, int producer, Grouping<Message> grouping) {
    CORRTRACK_CHECK_GE(consumer, 0);
    CORRTRACK_CHECK_LT(static_cast<size_t>(consumer), components_.size());
    CORRTRACK_CHECK_GE(producer, 0);
    CORRTRACK_CHECK_LT(static_cast<size_t>(producer), components_.size());
    CORRTRACK_CHECK(!components_[consumer].is_spout);
    components_[static_cast<size_t>(consumer)].subscriptions.push_back(
        {producer, std::move(grouping)});
  }

  const std::vector<Component>& components() const { return components_; }
  std::vector<Component>& mutable_components() { return components_; }

 private:
  std::vector<Component> components_;
};

}  // namespace corrtrack::stream

#endif  // CORRTRACK_STREAM_TOPOLOGY_H_
