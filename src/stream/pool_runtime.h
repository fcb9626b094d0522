#ifndef CORRTRACK_STREAM_POOL_RUNTIME_H_
#define CORRTRACK_STREAM_POOL_RUNTIME_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/check.h"
#include "core/types.h"
#include "stream/envelope.h"
#include "stream/routing.h"
#include "stream/runtime.h"
#include "stream/topology.h"
#include "telemetry/clock.h"
#include "telemetry/registry.h"

namespace corrtrack::stream {

/// Work-stealing pool executor: multiplexes the topology's M tasks onto N
/// worker threads. Each task owns a bounded MPSC mailbox; a task with mail
/// is scheduled as a *slice* (a bounded drain of its mailbox) onto the
/// scheduling worker's local run queue, and idle workers steal slices from
/// their peers. This decouples logical parallelism from physical threads —
/// 32 Partitioners × 32 Trackers run fine on 8 cores, which a
/// one-thread-per-task executor cannot express (§6's load experiments
/// assume exactly this tasks >> cores regime).
///
/// Semantics (the engine contract of runtime.h):
///  * A task executes on at most one thread at a time (its scheduling state
///    acts as a mutex around the bolt), so bolt state stays
///    thread-confined; the release/acquire transitions hand the state from
///    slice to slice.
///  * Per-edge FIFO is preserved: a producer task's emissions are staged in
///    the executing thread's delivery buffer in order and every slice
///    flushes its buffer before releasing the task, so migration between
///    workers cannot reorder an edge.
///  * Ticks fire on whichever worker runs the slice, from the timestamps
///    the task observes (virtual-time watermarks).
///  * Shutdown: once the spout is exhausted the pool first drains to
///    quiescence (every envelope in flight, feedback included, executed),
///    then a forward-poison flood, feedback edges excluded from the
///    accounting, residual feedback traffic discarded — the documented
///    cyclic-topology contract of runtime.h.
///
/// Backpressure: producers stage envelopes per destination and hand a lane
/// of at most kQueueBatch to its mailbox under one lock. The spout thread,
/// outside any slice, hands a lane over at once while no worker runs a
/// slice, and the last worker to go idle pushes what the spout staged
/// meanwhile: with the pool idle a batch saves nothing, and paced ingest
/// would otherwise wait for 64 documents. Mailboxes are bounded; a
/// producer that finds a mailbox full first tries to *help* — claim the
/// destination task and drain a slice of it inline on the producing
/// thread. When the destination is already executing elsewhere, the spout
/// thread (which holds no task) claims the oldest queued slice — injector
/// first, then the front of each worker's queue — and runs it instead of
/// sleeping, so a queued slice does not wait behind a busy worker while
/// the spout thread idles. Only when nothing can be claimed does the
/// producer block (the destination's runner is draining the mailbox, so
/// the wait is short). Helping is what makes tiny capacities safe under
/// tasks >> threads: progress never requires a free worker.
/// Inline helping nests (a helped task may itself hit a full queue); a
/// destination already held somewhere in this thread's help chain is
/// pushed over capacity instead of blocking, which bounds the chain by the
/// task count and rules out same-thread deadlock. Cross-thread cycles of
/// simultaneously full queues (two runners blocked pushing at each other,
/// both unclaimable) — which deadlock strictly blocking queues — are
/// broken by a bounded-stall overflow escape (kStallEscapeRounds): after
/// ~64 ms without progress the pusher spills over capacity, so shutdown
/// always terminates on cyclic topologies.
template <typename Message>
class PoolRuntime : public Runtime<Message> {
 public:
  explicit PoolRuntime(Topology<Message>* topology,
                       const RuntimeOptions& options = {})
      : topology_(topology),
        queue_capacity_(options.queue_capacity),
        num_threads_(options.num_threads > 0
                         ? options.num_threads
                         : static_cast<int>(std::max(
                               1u, std::thread::hardware_concurrency()))),
        start_time_(options.start_time) {
    CORRTRACK_CHECK(topology != nullptr);
    CORRTRACK_CHECK_GT(queue_capacity_, 0u);
    if (options.metrics != nullptr) {
      queue_depth_hist_ = options.metrics->GetHistogram(
          "runtime_queue_depth{runtime=\"pool\"}");
      block_wait_hist_ = options.metrics->GetHistogram(
          "runtime_block_wait_us{runtime=\"pool\"}");
      worker_steals_hist_ = options.metrics->GetHistogram(
          "runtime_worker_steals{runtime=\"pool\"}");
      worker_envelopes_hist_ = options.metrics->GetHistogram(
          "runtime_worker_envelopes{runtime=\"pool\"}");
    }
    Build();
  }

  PoolRuntime(const PoolRuntime&) = delete;
  PoolRuntime& operator=(const PoolRuntime&) = delete;

  void Run(Timestamp flush_horizon) override {
    CORRTRACK_CHECK(!ran_);
    ran_ = true;
    spout_buffer_ = std::make_unique<DeliveryBuffer>(tasks_.size());
    workers_.resize(static_cast<size_t>(num_threads_));
    for (auto& worker : workers_) worker = std::make_unique<Worker>();
    for (int w = 0; w < num_threads_; ++w) {
      workers_[static_cast<size_t>(w)]->thread =
          std::thread([this, w] { WorkerLoop(w); });
    }
    // Drive the spout from this thread; it participates in helping like
    // any producer (and runs queued slices while a full destination is
    // busy), so a saturated pool backpressures the source.
    ThreadBuffer() = spout_buffer_.get();
    Spout<Message>* spout =
        topology_->mutable_components()[static_cast<size_t>(
            spout_component_)].spout.get();
    Message msg;
    Timestamp time = 0;
    // An empty stream's "last timestamp" is the resume point: a restored
    // drain-only run still fires its flush-horizon ticks past the cut.
    Timestamp last_time = start_time_;
    while (spout->Next(&msg, &time)) {
      CORRTRACK_CHECK_GE(time, last_time);
      last_time = time;
      std::lock_guard<std::mutex> lock(spout_mutex_);
      RouteFrom(spout_component_, 0, std::move(msg), time,
                /*direct_instance=*/-1);
    }
    {
      std::lock_guard<std::mutex> lock(spout_mutex_);
      FlushSpoutLanes();
    }
    // Let every envelope in flight, feedback included, finish before the
    // end-of-stream poison: a control round still running at the last
    // document completes, as it does on the simulator.
    {
      std::unique_lock<std::mutex> lock(done_mutex_);
      all_done_.wait(lock, [this] {
        return unfinished_.load(std::memory_order_seq_cst) == 0;
      });
    }
    {
      std::lock_guard<std::mutex> lock(spout_mutex_);
      FloodPoison(spout_component_, last_time + flush_horizon);
      FlushSpoutLanes();
    }
    ThreadBuffer() = nullptr;
    // Wait until every bolt task has drained its forward inputs, then stop
    // the workers; items still in flight on feedback edges are dropped.
    {
      std::unique_lock<std::mutex> lock(done_mutex_);
      all_done_.wait(lock, [this] {
        return done_tasks_ == tasks_.size() - 1;  // All but the spout task.
      });
    }
    stop_.store(true, std::memory_order_seq_cst);
    {
      std::lock_guard<std::mutex> lock(work_mutex_);
      work_cv_.notify_all();
    }
    for (auto& worker : workers_) {
      if (worker->thread.joinable()) worker->thread.join();
    }
    // Per-worker/per-task distributions: scheduling skew that the summed
    // RuntimeStats totals hide.
    if (worker_steals_hist_ != nullptr) {
      for (const auto& worker : workers_) {
        worker_steals_hist_->Record(worker->steals);
      }
    }
    if (worker_envelopes_hist_ != nullptr) {
      for (const auto& task : tasks_) {
        if (task->is_spout) continue;
        worker_envelopes_hist_->Record(
            task->delivered.load(std::memory_order_relaxed));
      }
    }
  }
  using Runtime<Message>::Run;

  Bolt<Message>* bolt(int component, int instance) override {
    return tasks_[static_cast<size_t>(TaskId(component, instance))]
        ->bolt.get();
  }

  uint64_t TuplesDelivered(int component) const override {
    uint64_t total = 0;
    for (const auto& task : tasks_) {
      if (task->addr.component == component) {
        total += task->delivered.load(std::memory_order_relaxed);
      }
    }
    return total;
  }

  RuntimeKind kind() const override { return RuntimeKind::kPool; }

  RuntimeStats stats() const override {
    RuntimeStats stats;
    stats.num_threads = num_threads_;
    stats.queue_capacity = queue_capacity_;
    stats.queue_full_blocks =
        queue_full_blocks_.load(std::memory_order_relaxed);
    stats.stall_escapes = stall_escapes_.load(std::memory_order_relaxed);
    stats.tasks_spawned = tasks_spawned_.load(std::memory_order_relaxed);
    stats.tasks_retired = tasks_retired_.load(std::memory_order_relaxed);
    for (const auto& task : tasks_) {
      stats.envelopes_moved +=
          task->delivered.load(std::memory_order_relaxed);
      if (task->mailbox != nullptr) {
        stats.max_queue_depth =
            std::max(stats.max_queue_depth,
                     static_cast<uint64_t>(task->mailbox->max_depth()));
      }
    }
    stats.steals = spout_steals_;
    for (const auto& worker : workers_) {
      stats.steals += worker->steals;
    }
    return stats;
  }

  // TopologyControl: the provisioned max-k tasks exist from Build; the
  // active count is a routing mask over them (see runtime.h).
  int ActiveParallelism(int component) const override {
    return active_[static_cast<size_t>(component)].load(
        std::memory_order_acquire);
  }

  int MaxParallelism(int component) const override {
    return topology_->components()[static_cast<size_t>(component)]
        .max_instances();
  }

  int ResizeComponent(int component, int target_parallelism) override {
    const int max = MaxParallelism(component);
    const int next = std::clamp(target_parallelism, 1, max);
    std::atomic<int>& active = active_[static_cast<size_t>(component)];
    const int prev = active.load(std::memory_order_acquire);
    if (next > prev) {
      tasks_spawned_.fetch_add(static_cast<uint64_t>(next - prev),
                               std::memory_order_relaxed);
    } else if (prev > next) {
      tasks_retired_.fetch_add(static_cast<uint64_t>(prev - next),
                               std::memory_order_relaxed);
    }
    active.store(next, std::memory_order_release);
    return next;
  }

 private:
  struct Item {
    Envelope<Message> envelope;
    bool poison = false;
    Timestamp poison_horizon = 0;
  };

  /// Mailbox items drained per scheduled slice: bounds how long one task
  /// monopolises a worker when tasks outnumber threads.
  static constexpr size_t kSliceBatch = 256;

  /// Task scheduling states. kIdle -> kQueued (a hint was enqueued) ->
  /// kRunning (a worker or helper claimed it) -> kIdle. Only
  /// kIdle->kRunning and kQueued->kRunning claims may execute the task, so
  /// the bolt is single-threaded; the store back to kIdle releases the
  /// bolt's state to the next claimer's acquire.
  enum : int { kIdle = 0, kQueued = 1, kRunning = 2 };

  /// Bounded MPSC mailbox: a FIFO ring over a vector that starts empty,
  /// doubles on demand (an overflow push may take it past the capacity)
  /// and keeps its high-water storage, so steady traffic allocates
  /// nothing. Pops are non-blocking (a task only runs when scheduled,
  /// never waits for input); pushes are non-blocking too — the caller
  /// handles a full mailbox by helping or waiting on not_full.
  class Mailbox {
   public:
    explicit Mailbox(size_t capacity,
                     telemetry::LatencyHistogram* depth_hist = nullptr)
        : capacity_(capacity), depth_hist_(depth_hist) {}

    /// Moves items[*offset..) into the mailbox while capacity allows,
    /// advancing *offset. Returns true when everything fit.
    bool TryPushBatch(std::vector<Item>* items, size_t* offset) {
      std::lock_guard<std::mutex> lock(mutex_);
      while (*offset < items->size() && size_ < capacity_) {
        PushLocked(std::move((*items)[(*offset)++]));
      }
      RecordDepthLocked();
      return *offset == items->size();
    }

    /// Appends the remainder ignoring capacity — only legal when the
    /// pushing thread itself holds the destination task in its help chain
    /// (blocking would self-deadlock; see class comment).
    void PushBatchOverflow(std::vector<Item>* items, size_t offset) {
      std::lock_guard<std::mutex> lock(mutex_);
      for (; offset < items->size(); ++offset) {
        PushLocked(std::move((*items)[offset]));
      }
      RecordDepthLocked();
    }

    /// Moves up to max_items into *out. Never blocks; returns the count.
    size_t PopBatch(std::vector<Item>* out, size_t max_items) {
      std::lock_guard<std::mutex> lock(mutex_);
      const size_t n = std::min(max_items, size_);
      for (size_t i = 0; i < n; ++i) {
        out->push_back(std::move(ring_[head_]));
        head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
      }
      size_ -= n;
      if (n > 0) not_full_.notify_all();
      return n;
    }

    bool Empty() const {
      std::lock_guard<std::mutex> lock(mutex_);
      return size_ == 0;
    }

    /// Waits (bounded) for the destination's runner to make room. The wait
    /// is deliberately short: when the runner releases the task instead of
    /// draining further, the pusher must loop back and try to *claim* the
    /// now-queued task rather than sleep on a mailbox nobody is draining.
    void WaitNotFull() {
      std::unique_lock<std::mutex> lock(mutex_);
      not_full_.wait_for(lock, std::chrono::milliseconds(1),
                         [this] { return size_ < capacity_; });
    }

    size_t max_depth() const {
      std::lock_guard<std::mutex> lock(mutex_);
      return max_depth_;
    }

   private:
    void PushLocked(Item&& item) {
      if (size_ == ring_.size()) {
        // Full ring: move the items, oldest first, into one twice the
        // size (a lane's worth to begin with).
        std::vector<Item> grown(std::max(kQueueBatch, 2 * ring_.size()));
        for (size_t i = 0; i < size_; ++i) {
          grown[i] = std::move(ring_[(head_ + i) % ring_.size()]);
        }
        ring_.swap(grown);
        head_ = 0;
      }
      const size_t tail = head_ + size_;
      ring_[tail < ring_.size() ? tail : tail - ring_.size()] =
          std::move(item);
      ++size_;
    }

    void RecordDepthLocked() {
      max_depth_ = std::max(max_depth_, size_);
      if (depth_hist_ != nullptr) depth_hist_->Record(size_);
    }

    const size_t capacity_;
    telemetry::LatencyHistogram* depth_hist_;  // Null = not recording.
    mutable std::mutex mutex_;
    std::condition_variable not_full_;
    std::vector<Item> ring_;  // Items at [head_, head_ + size_) mod size.
    size_t head_ = 0;
    size_t size_ = 0;
    size_t max_depth_ = 0;
  };

  using DeliveryBuffer = StagingBuffer<Item>;

  struct Task {
    TaskAddress addr;
    bool is_spout = false;
    std::unique_ptr<Bolt<Message>> bolt;
    std::unique_ptr<Mailbox> mailbox;
    std::atomic<int> state{kIdle};
    int upstream_edges = 0;  // Poisons to await before finishing.
    // Slice-confined state (only the current claimer touches these).
    int poisons_pending = 0;
    Timestamp horizon = 0;
    Timestamp next_tick = 0;
    Timestamp tick_period = 0;
    bool done = false;
    std::atomic<uint64_t> delivered{0};
  };

  struct Worker {
    std::mutex mutex;
    std::deque<int> run_queue;  // Task-id hints; owner pops back (LIFO,
                                // cache-hot), thieves steal the front.
    std::thread thread;
    uint64_t steals = 0;  // Written by the owning worker only.
  };

  class EmitterImpl : public Emitter<Message> {
   public:
    EmitterImpl(PoolRuntime* runtime, TaskAddress source, Timestamp time)
        : runtime_(runtime), source_(source), time_(time) {}

    void Emit(Message msg) override {
      runtime_->RouteFrom(source_.component, source_.instance,
                         std::move(msg), time_, -1);
    }

    void EmitDirect(int instance, Message msg) override {
      runtime_->RouteFrom(source_.component, source_.instance,
                         std::move(msg), time_, instance);
    }

    Timestamp now() const override { return time_; }

   private:
    PoolRuntime* runtime_;
    TaskAddress source_;
    Timestamp time_;
  };

  void Build() {
    const auto& components = topology_->components();
    task_base_.resize(components.size());
    active_ = std::make_unique<std::atomic<int>[]>(components.size());
    edges_ = BuildEdgeLists<Message>(components);
    for (size_t c = 0; c < components.size(); ++c) {
      const auto& comp = components[c];
      task_base_[c] = static_cast<int>(tasks_.size());
      active_[c].store(comp.parallelism, std::memory_order_relaxed);
      if (comp.is_spout) {
        CORRTRACK_CHECK_EQ(spout_component_, -1);
        spout_component_ = static_cast<int>(c);
        auto task = std::make_unique<Task>();
        task->addr = {static_cast<int>(c), 0};
        task->is_spout = true;
        tasks_.push_back(std::move(task));
        continue;
      }
      // Every provisioned instance is built up front, as on the simulator:
      // an elastic resize only moves the routing mask (see TopologyControl
      // in runtime.h).
      for (int i = 0; i < comp.max_instances(); ++i) {
        auto task = std::make_unique<Task>();
        task->addr = {static_cast<int>(c), i};
        task->bolt = comp.bolt_factory(i);
        CORRTRACK_CHECK(task->bolt != nullptr);
        task->bolt->Prepare(task->addr, comp.parallelism);
        task->bolt->AttachControl(this);
        task->mailbox =
            std::make_unique<Mailbox>(queue_capacity_, queue_depth_hist_);
        task->tick_period = comp.tick_period;
        task->next_tick = FirstTickAfter(comp.tick_period, start_time_);
        tasks_.push_back(std::move(task));
      }
    }
    CORRTRACK_CHECK_NE(spout_component_, -1);
    const std::vector<int> poisons =
        ComputeUpstreamPoisonCounts(components, task_base_, tasks_.size());
    for (size_t t = 0; t < tasks_.size(); ++t) {
      if (tasks_[t]->is_spout) continue;
      // Every bolt must be reachable through forward edges, or shutdown
      // could not terminate it.
      CORRTRACK_CHECK_GT(poisons[t], 0);
      tasks_[t]->upstream_edges = poisons[t];
      tasks_[t]->poisons_pending = poisons[t];
    }
  }

  int TaskId(int component, int instance) const {
    return task_base_[static_cast<size_t>(component)] + instance;
  }

  /// Routing fan-out: the *active* instance count (elastic mask).
  int Parallelism(int component) const {
    return active_[static_cast<size_t>(component)].load(
        std::memory_order_acquire);
  }

  /// Stages `msg`, emitted by (producer, instance), for every destination
  /// along the producer's edges (see RouteAlongEdges).
  void RouteFrom(int producer, int instance, Message msg, Timestamp time,
                 int direct_instance) {
    RouteAlongEdges(
        edges_[static_cast<size_t>(producer)], std::move(msg),
        direct_instance,
        [this](int component) { return Parallelism(component); },
        [&](int component, int target, Message&& payload) {
          Item item{Envelope<Message>(std::move(payload))};
          item.envelope.source = {producer, instance};
          item.envelope.time = time;
          Deliver(component, target, std::move(item));
        });
  }

  /// Stages `item` in the current thread's delivery buffer, moving the
  /// destination's lane into its mailbox once it reaches kQueueBatch.
  /// Lanes are also pushed when a slice ends and, for the spout thread,
  /// at once while no worker runs a slice.
  void Deliver(int component, int instance, Item item) {
    const size_t task_id = static_cast<size_t>(TaskId(component, instance));
    DeliveryBuffer* buffer = ThreadBuffer();
    CORRTRACK_CHECK(buffer != nullptr);
    std::vector<Item>& lane = buffer->per_task[task_id];
    if (!buffer->staged[task_id]) {
      buffer->staged[task_id] = 1;
      buffer->dirty.push_back(static_cast<int>(task_id));
    }
    lane.push_back(std::move(item));
    if (lane.size() >= kQueueBatch) {
      PushToTask(tasks_[task_id].get(), &lane);
    } else if (WorkerIndex() < 0 && HelpChain().empty()) {
      // The spout thread outside any slice: its lanes batch only while a
      // worker runs a slice, and the last worker to go idle pushes what
      // is still staged (WorkerLoop). With no worker running, a batch
      // saves nothing and the envelope would wait for the lane to fill.
      // The flag is stored before the count is read, and WorkerLoop
      // reads them in the opposite order, so one side sees the other.
      spout_staged_.store(true, std::memory_order_seq_cst);
      if (running_workers_.load(std::memory_order_seq_cst) == 0) {
        PushToTask(tasks_[task_id].get(), &lane);
      }
    }
  }

  /// Pushes every staged envelope of `buffer`, by default the current
  /// thread's (per-destination FIFO order preserved). Every slice calls
  /// this before releasing its task, so no envelope is held back by a
  /// descheduled producer. Helping inside PushToTask can stage *new*
  /// envelopes into this same buffer (nested slices share it), so loop
  /// until no lane is dirty — each pass un-stages before pushing so nested
  /// deliveries re-dirty their lane and are picked up by the next pass.
  void FlushDeliveries(DeliveryBuffer* buffer = ThreadBuffer()) {
    std::vector<int> dirty;
    while (!buffer->dirty.empty()) {
      dirty.clear();
      dirty.swap(buffer->dirty);
      for (int id : dirty) buffer->staged[static_cast<size_t>(id)] = 0;
      for (int id : dirty) {
        std::vector<Item>& lane = buffer->per_task[static_cast<size_t>(id)];
        if (!lane.empty()) PushToTask(tasks_[static_cast<size_t>(id)].get(),
                                      &lane);
      }
    }
    // Hand the larger of the two lists back, empty, for the next slice.
    if (dirty.capacity() > buffer->dirty.capacity()) {
      dirty.clear();
      dirty.swap(buffer->dirty);
    }
  }

  // The bounded-stall escape window is routing.h's kStallEscapeRounds:
  // two tasks blocked pushing at each other's full mailboxes — e.g. the
  // Disseminator->Merger feedback edge against the Merger->Disseminator
  // install broadcasts, both backed up — can neither be claimed for
  // helping (both are kRunning), so strict blocking would deadlock; the
  // escape trades transient over-capacity on one edge for deadlock
  // freedom.

  /// Moves `*items` into the task's mailbox, helping or waiting when it is
  /// full, then wakes the task. The lane is emptied *first* so nested
  /// helping (which shares this thread's buffer) never observes a
  /// half-pushed lane; anything a nested slice stages for the same
  /// destination is strictly newer traffic on other edges and may
  /// legitimately overtake nothing. The emptied buffer goes back to the
  /// lane unless nested helping staged into it meanwhile, so a lane keeps
  /// its storage from push to push.
  void PushToTask(Task* task, std::vector<Item>* items) {
    std::vector<Item> local;
    local.swap(*items);
    // Counted before any item becomes visible to a consumer, so the count
    // cannot reach zero while this traffic is on its way.
    unfinished_.fetch_add(static_cast<int64_t>(local.size()),
                          std::memory_order_seq_cst);
    size_t offset = 0;
    if (InHelpChain(task)) {
      // Blocking would deadlock (this thread is the task's runner);
      // feedback traffic into a task we are currently executing spills
      // over capacity instead.
      task->mailbox->PushBatchOverflow(&local, offset);
    } else {
      int stalled_rounds = 0;
      size_t last_offset = 0;
      while (!task->mailbox->TryPushBatch(&local, &offset)) {
        // Whatever fit must become visible for draining before we stall.
        ScheduleIfIdle(task);
        queue_full_blocks_.fetch_add(1, std::memory_order_relaxed);
        if (offset > last_offset) {
          last_offset = offset;
          stalled_rounds = 0;
        }
        if (HelpOrWait(task)) {
          stalled_rounds = 0;  // Helped: the destination drained a slice.
        } else if (++stalled_rounds >= kStallEscapeRounds) {
          stall_escapes_.fetch_add(1, std::memory_order_relaxed);
          task->mailbox->PushBatchOverflow(&local, offset);
          break;
        }
      }
    }
    ScheduleIfIdle(task);
    if (items->empty()) {
      local.clear();
      items->swap(local);
    }
  }

  /// The destination's mailbox is full: claim and drain a slice of it on
  /// this thread when possible (returns true). Failing that, the spout
  /// thread outside any slice runs the oldest queued slice instead
  /// (returns true). Otherwise wait — bounded — for the destination's
  /// current runner to make room (returns false).
  bool HelpOrWait(Task* task) {
    int expected = kIdle;
    if (task->state.compare_exchange_strong(expected, kRunning,
                                            std::memory_order_acq_rel)) {
      RunSlice(task);
      return true;
    }
    expected = kQueued;
    if (task->state.compare_exchange_strong(expected, kRunning,
                                            std::memory_order_acq_rel)) {
      // Claimed a scheduled task; its run-queue hint goes stale and will
      // be skipped by whoever pops it.
      RunSlice(task);
      return true;
    }
    if (WorkerIndex() < 0 && HelpChain().empty()) {
      // The spout thread holds no task, so it is in no push cycle and any
      // slice may run here; otherwise a hint can wait behind a busy
      // worker's queue while this thread sleeps.
      if (Task* other = FindWork(-1)) {
        RunSlice(other);
        return true;
      }
    }
    if (block_wait_hist_ != nullptr) {
      const int64_t blocked_at = telemetry::MonotonicNanos();
      task->mailbox->WaitNotFull();
      block_wait_hist_->Record(
          telemetry::SpanMicros(blocked_at, telemetry::MonotonicNanos()));
      return false;
    }
    task->mailbox->WaitNotFull();
    return false;
  }

  bool InHelpChain(const Task* task) const {
    for (const Task* held : HelpChain()) {
      if (held == task) return true;
    }
    return false;
  }

  /// Pushes every envelope the spout thread has staged. The caller holds
  /// spout_mutex_: the spout thread, or a worker that found the pool idle.
  void FlushSpoutLanes() {
    FlushDeliveries(spout_buffer_.get());
    spout_staged_.store(false, std::memory_order_relaxed);
  }

  /// If the task is idle, mark it queued and enqueue a hint for the
  /// workers. A task already queued or running needs no new hint: its next
  /// release re-checks the mailbox.
  void ScheduleIfIdle(Task* task) {
    int expected = kIdle;
    if (!task->state.compare_exchange_strong(expected, kQueued,
                                             std::memory_order_acq_rel)) {
      return;
    }
    const int task_id = TaskId(task->addr.component, task->addr.instance);
    const int w = WorkerIndex();
    if (w >= 0) {
      Worker* worker = workers_[static_cast<size_t>(w)].get();
      std::lock_guard<std::mutex> lock(worker->mutex);
      worker->run_queue.push_back(task_id);
    } else {
      // Spout thread: hints go to the shared injector queue.
      std::lock_guard<std::mutex> lock(inject_mutex_);
      inject_queue_.push_back(task_id);
    }
    pending_hints_.fetch_add(1, std::memory_order_seq_cst);
    {
      std::lock_guard<std::mutex> lock(work_mutex_);
      work_cv_.notify_one();
    }
  }

  /// Sends one poison along every forward edge leaving `producer`, through
  /// the regular staged-delivery path (so data already staged on an edge
  /// is pushed before the poison). Poisons go to every *provisioned*
  /// consumer instance: inactive elastic slots must terminate too.
  void FloodPoison(int producer, Timestamp horizon) {
    for (auto& edge : edges_[static_cast<size_t>(producer)]) {
      if (edge->consumer <= producer) continue;  // Feedback edge.
      for (int i = 0; i < MaxParallelism(edge->consumer); ++i) {
        Item item;
        item.poison = true;
        item.poison_horizon = horizon;
        Deliver(edge->consumer, i, std::move(item));
      }
    }
  }

  /// Executes one slice of `task`: drains up to kSliceBatch items, fires
  /// ticks, runs the bolt, flushes this thread's staged emissions, then
  /// releases the task (re-scheduling it when mail remains). The caller
  /// must have claimed `task` (state == kRunning).
  void RunSlice(Task* task) {
    // The batch is borrowed from this thread's per-depth store (nested
    // helping runs a slice while this one holds its batch), so its
    // storage outlives the slice.
    const size_t depth = HelpChain().size();
    if (SliceBatches().size() <= depth) SliceBatches().resize(depth + 1);
    std::vector<Item> batch = std::move(SliceBatches()[depth]);
    HelpChain().push_back(task);
    const int64_t popped =
        static_cast<int64_t>(task->mailbox->PopBatch(&batch, kSliceBatch));
    for (Item& item : batch) {
      if (task->done) continue;  // Residual feedback traffic: discard.
      if (item.poison) {
        --task->poisons_pending;
        task->horizon = std::max(task->horizon, item.poison_horizon);
        if (task->poisons_pending == 0) FinishTask(task);
        continue;
      }
      FireTicks(task, item.envelope.time);
      task->delivered.fetch_add(1, std::memory_order_relaxed);
      EmitterImpl emitter(this, task->addr, item.envelope.time);
      task->bolt->Execute(item.envelope, emitter);
    }
    batch.clear();
    SliceBatches()[depth] = std::move(batch);
    FlushDeliveries();
    // What this slice emitted is counted now, so its own envelopes retire.
    if (popped > 0 && unfinished_.fetch_sub(popped, std::memory_order_seq_cst) ==
                          popped) {
      std::lock_guard<std::mutex> lock(done_mutex_);
      all_done_.notify_one();
    }
    HelpChain().pop_back();
    task->state.store(kIdle, std::memory_order_release);
    if (!task->mailbox->Empty()) ScheduleIfIdle(task);
  }

  /// All forward producers of `task` are done: fire the final ticks up to
  /// the poison horizon, propagate the poison downstream and report done.
  /// Later slices only discard residual feedback traffic.
  void FinishTask(Task* task) {
    FireTicks(task, task->horizon);
    // Final emissions (ticks + in-slice data) must precede our poison on
    // every edge; flushing here guarantees it.
    FlushDeliveries();
    FloodPoison(task->addr.component, task->horizon);
    FlushDeliveries();
    task->done = true;
    {
      std::lock_guard<std::mutex> lock(done_mutex_);
      ++done_tasks_;
    }
    all_done_.notify_one();
  }

  void FireTicks(Task* task, Timestamp now) {
    if (task->tick_period <= 0) return;
    while (task->next_tick <= now) {
      EmitterImpl emitter(this, task->addr, task->next_tick);
      task->bolt->OnTick(task->next_tick, emitter);
      task->next_tick += task->tick_period;
    }
  }

  int PopInjected() {
    std::lock_guard<std::mutex> lock(inject_mutex_);
    if (inject_queue_.empty()) return -1;
    const int task_id = inject_queue_.front();
    inject_queue_.pop_front();
    return task_id;
  }

  /// Pops the oldest hint queued by another thread: the front of each
  /// worker's queue in ring order after `self` (the spout thread, -1,
  /// starts at worker 0 and visits every worker). Returns -1 when all are
  /// empty.
  int StealFront(int self) {
    const int victims = self < 0 ? num_threads_ : num_threads_ - 1;
    for (int i = 1; i <= victims; ++i) {
      const int victim_id = (self + i) % num_threads_;
      Worker* victim = workers_[static_cast<size_t>(victim_id)].get();
      std::lock_guard<std::mutex> lock(victim->mutex);
      if (!victim->run_queue.empty()) {
        const int task_id = victim->run_queue.front();
        victim->run_queue.pop_front();
        return task_id;
      }
    }
    return -1;
  }

  /// Claims the next runnable task for worker `self`, or for the spout
  /// thread when `self` is -1. A worker takes its own queue first (LIFO);
  /// then every caller takes the oldest foreign work: the spout injector
  /// queue, then steals. Slices the spout thread claims count as steals.
  /// Returns nullptr when no hint yields a claim.
  Task* FindWork(int self) {
    while (true) {
      int task_id = -1;
      if (self >= 0) {
        Worker* own = workers_[static_cast<size_t>(self)].get();
        std::lock_guard<std::mutex> lock(own->mutex);
        if (!own->run_queue.empty()) {
          task_id = own->run_queue.back();
          own->run_queue.pop_back();
        }
      }
      if (task_id < 0) task_id = PopInjected();
      const bool stolen = task_id < 0;
      if (stolen) task_id = StealFront(self);
      if (task_id < 0) return nullptr;
      pending_hints_.fetch_sub(1, std::memory_order_seq_cst);
      Task* task = tasks_[static_cast<size_t>(task_id)].get();
      int expected = kQueued;
      if (task->state.compare_exchange_strong(expected, kRunning,
                                              std::memory_order_acq_rel)) {
        if (self < 0) {
          ++spout_steals_;
        } else if (stolen) {
          ++workers_[static_cast<size_t>(self)]->steals;
        }
        return task;
      }
      // Stale hint (a helper claimed the task); keep looking.
    }
  }

  void WorkerLoop(int worker_id) {
    WorkerIndex() = worker_id;
    DeliveryBuffer buffer(tasks_.size());
    ThreadBuffer() = &buffer;
    while (true) {
      Task* task = FindWork(worker_id);
      if (task != nullptr) {
        running_workers_.fetch_add(1, std::memory_order_seq_cst);
        RunSlice(task);
        running_workers_.fetch_sub(1, std::memory_order_seq_cst);
        continue;
      }
      if (running_workers_.load(std::memory_order_seq_cst) == 0 &&
          spout_staged_.load(std::memory_order_seq_cst)) {
        // The pool is going idle with envelopes the spout thread staged
        // while workers ran. The spout may be blocked in Next() for a
        // long time, so push them here rather than strand them.
        std::lock_guard<std::mutex> lock(spout_mutex_);
        FlushSpoutLanes();
        continue;
      }
      std::unique_lock<std::mutex> lock(work_mutex_);
      work_cv_.wait(lock, [this] {
        return stop_.load(std::memory_order_seq_cst) ||
               pending_hints_.load(std::memory_order_seq_cst) > 0;
      });
      if (stop_.load(std::memory_order_seq_cst)) break;
    }
    ThreadBuffer() = nullptr;
    WorkerIndex() = -1;
  }

  Topology<Message>* topology_;
  const size_t queue_capacity_;
  const int num_threads_;
  const Timestamp start_time_;  // Resume point (checkpoint restore).
  int spout_component_ = -1;
  std::vector<std::unique_ptr<Task>> tasks_;
  std::vector<int> task_base_;
  std::vector<EdgeList<Message>> edges_;
  std::vector<std::unique_ptr<Worker>> workers_;
  uint64_t spout_steals_ = 0;  // Written by the Run() caller only.
  bool ran_ = false;

  std::mutex inject_mutex_;
  std::deque<int> inject_queue_;  // Task-id hints from the spout thread.
  std::atomic<int> pending_hints_{0};
  std::atomic<int> running_workers_{0};  // Workers inside RunSlice.
  // The spout thread's delivery buffer. The spout thread holds
  // spout_mutex_ while it routes or flushes, and so does the last worker
  // to go idle when it flushes the buffer; spout_staged_ is set while an
  // envelope the spout thread routed may still be staged in it.
  std::unique_ptr<DeliveryBuffer> spout_buffer_;
  std::mutex spout_mutex_;
  std::atomic<bool> spout_staged_{false};
  std::mutex work_mutex_;
  std::condition_variable work_cv_;
  std::atomic<bool> stop_{false};

  std::mutex done_mutex_;
  std::condition_variable all_done_;  // Run() waits on quiescence, then done.
  size_t done_tasks_ = 0;
  // Envelopes pushed to a mailbox whose slice has not yet flushed its
  // emissions; zero once the pool is quiescent.
  std::atomic<int64_t> unfinished_{0};

  std::atomic<uint64_t> queue_full_blocks_{0};
  std::atomic<uint64_t> stall_escapes_{0};
  std::atomic<uint64_t> tasks_spawned_{0};
  std::atomic<uint64_t> tasks_retired_{0};
  telemetry::LatencyHistogram* queue_depth_hist_ = nullptr;
  telemetry::LatencyHistogram* block_wait_hist_ = nullptr;
  telemetry::LatencyHistogram* worker_steals_hist_ = nullptr;
  telemetry::LatencyHistogram* worker_envelopes_hist_ = nullptr;
  /// Live instances per component (routing mask; elastic resize).
  std::unique_ptr<std::atomic<int>[]> active_;

  // Thread-confined execution context, exposed as function-local
  // thread_locals (out-of-class thread_local static members of a class
  // template trip GCC's __tls_guard emission once a TU instantiates three
  // Message types). HelpChain() is the stack of tasks this thread
  // currently runs (nested helping); SliceBatches() RunSlice's batch per
  // help-chain depth; ThreadBuffer() the thread's delivery buffer;
  // WorkerIndex() -1 outside worker threads. The state is safe across
  // sequential PoolRuntime instances: the chain is push/pop balanced, the
  // batches are empty between slices and the buffer/index are reset on
  // exit.
  static std::vector<Task*>& HelpChain() {
    static thread_local std::vector<Task*> chain;
    return chain;
  }
  static std::vector<std::vector<Item>>& SliceBatches() {
    static thread_local std::vector<std::vector<Item>> batches;
    return batches;
  }
  static DeliveryBuffer*& ThreadBuffer() {
    static thread_local DeliveryBuffer* buffer = nullptr;
    return buffer;
  }
  static int& WorkerIndex() {
    static thread_local int index = -1;
    return index;
  }
};

}  // namespace corrtrack::stream

#endif  // CORRTRACK_STREAM_POOL_RUNTIME_H_
