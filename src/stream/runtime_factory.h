#ifndef CORRTRACK_STREAM_RUNTIME_FACTORY_H_
#define CORRTRACK_STREAM_RUNTIME_FACTORY_H_

#include <memory>

#include "stream/pool_runtime.h"
#include "stream/runtime.h"
#include "stream/simulation.h"

namespace corrtrack::stream {

/// Instantiates the requested substrate for `topology`. The simulator
/// honours only start_time; the pool uses every knob. Layers with a
/// PipelineConfig should prefer ops::MakeConfiguredRuntime, which maps the
/// config's runtime knobs here.
template <typename Message>
std::unique_ptr<Runtime<Message>> MakeRuntime(
    RuntimeKind kind, Topology<Message>* topology,
    const RuntimeOptions& options = {}) {
  switch (kind) {
    case RuntimeKind::kSimulation:
      return std::make_unique<SimulationRuntime<Message>>(topology, options);
    case RuntimeKind::kPool:
      return std::make_unique<PoolRuntime<Message>>(topology, options);
  }
  return nullptr;
}

}  // namespace corrtrack::stream

#endif  // CORRTRACK_STREAM_RUNTIME_FACTORY_H_
