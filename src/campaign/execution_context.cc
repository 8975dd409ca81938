#include "campaign/execution_context.h"

#include "campaign/warm_world.h"

namespace gremlin::campaign {

ExecutionContext::ExecutionContext(bool warm_worlds)
    : warm_enabled_(warm_worlds) {}

ExecutionContext::~ExecutionContext() {
  // Worlds hold Symbols minted by this shard; tear them down before the
  // shard merges and dies with the context.
  worlds_.clear();
  symbols_.merge();
}

WarmWorld* ExecutionContext::world_for(const AppSpec& app) {
  for (auto& world : worlds_) {
    if (world->app().identity() == app.identity()) return world.get();
  }
  if (worlds_.size() >= kMaxWarmWorlds) {
    worlds_.erase(worlds_.begin());
  }
  worlds_.push_back(
      std::make_unique<WarmWorld>(app, &event_pool_, &memory_));
  return worlds_.back().get();
}

ExperimentResult ExecutionContext::execute(const Experiment& experiment,
                                           const ExecOptions& exec) {
  if (!warm_enabled_ || experiment.custom || !experiment.app.reusable) {
    return CampaignRunner::run_one(experiment, exec);
  }
  return world_for(experiment.app)->run(experiment, exec);
}

}  // namespace gremlin::campaign
