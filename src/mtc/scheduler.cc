#include "mtc/scheduler.h"

#include <algorithm>

#include "hash/hash.h"

namespace memfs::mtc {

std::uint64_t FileSeed(std::string_view path) {
  return hash::Fnv1a64(path) ^ 0xa5a5a5a5deadbeefull;
}

std::optional<net::NodeId> UniformScheduler::Place(
    const Workflow& workflow, std::size_t task,
    const std::vector<std::uint32_t>& free_cores) {
  (void)workflow;
  (void)task;
  const auto nodes = static_cast<std::uint32_t>(free_cores.size());
  for (std::uint32_t step = 0; step < nodes; ++step) {
    const std::uint32_t node = (cursor_ + step) % nodes;
    if (free_cores[node] > 0) {
      cursor_ = (node + 1) % nodes;
      return node;
    }
  }
  return std::nullopt;
}

std::optional<net::NodeId> LocalityScheduler::Place(
    const Workflow& workflow, std::size_t task,
    const std::vector<std::uint32_t>& free_cores) {
  const auto nodes = static_cast<std::uint32_t>(free_cores.size());

  auto round_robin = [&]() -> std::optional<net::NodeId> {
    for (std::uint32_t step = 0; step < nodes; ++step) {
      const std::uint32_t node = (cursor_ + step) % nodes;
      if (free_cores[node] > 0) {
        cursor_ = (node + 1) % nodes;
        return node;
      }
    }
    return std::nullopt;
  };

  const std::span<const FileId> inputs =
      workflow.Inputs(workflow.tasks[task]);
  if (inputs.empty()) return round_robin();

  net::NodeId preferred;
  if (inputs.size() <= 2) {
    // AMFS Shell guarantees locality for one file per job: follow the first
    // input. Any further inputs become remote reads (Table 1's penalty).
    preferred = fs_.OwnerHint(workflow.Path(inputs.front()));
  } else {
    // Aggregation task: run where the most input data lives. This is the
    // policy that turns one node into the overloaded "scheduler node".
    std::vector<std::uint64_t> bytes(nodes, 0);
    for (FileId input : inputs) {
      const net::NodeId owner = fs_.OwnerHint(workflow.Path(input));
      if (owner < nodes) {
        // Owner granularity is enough; sizes are unknown to the Shell.
        ++bytes[owner];
      }
    }
    preferred = static_cast<net::NodeId>(
        std::max_element(bytes.begin(), bytes.end()) - bytes.begin());
  }

  if (preferred >= nodes) return round_robin();  // unknown file
  if (deferrals_.size() < workflow.tasks.size()) {
    deferrals_.resize(workflow.tasks.size(), 0);
  }
  if (free_cores[preferred] > 0) {
    deferrals_[task] = 0;
    return preferred;
  }
  // Preferred node busy: defer, up to `patience_` times, then run anywhere
  // (paying replication) so the workflow cannot livelock.
  const std::uint32_t seen = ++deferrals_[task];
  if (patience_ != 0 && seen > patience_) {
    deferrals_[task] = 0;
    return round_robin();
  }
  return std::nullopt;
}

}  // namespace memfs::mtc
