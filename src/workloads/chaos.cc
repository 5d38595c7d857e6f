#include "workloads/chaos.h"

#include <string>
#include <utility>

#include "common/bytes.h"
#include "common/status.h"
#include "common/units.h"

namespace memfs::workloads {

using units::Millis;

kv::KvClientPolicy ChaosPolicy() {
  kv::KvClientPolicy policy;
  policy.retry.max_attempts = 5;
  policy.op_deadline = Millis(20);
  return policy;
}

sim::FaultScheduleConfig ChaosSchedule(std::uint64_t seed,
                                       std::uint32_t servers,
                                       bool wipe_on_restart) {
  sim::FaultScheduleConfig schedule;
  schedule.seed = seed;
  schedule.servers = schedule.nodes = servers;
  schedule.horizon = Millis(48);
  schedule.crashes = 2;
  schedule.slow_episodes = 1;
  schedule.link_faults = 1;
  schedule.wipe_on_restart = wipe_on_restart;
  return schedule;
}

std::vector<sim::FaultEvent> ScriptedChaosSchedule() {
  std::vector<sim::FaultEvent> events;
  for (std::uint32_t victim : {0u, 2u, 4u}) {  // down at 10, 30 and 50 ms
    events.push_back({.kind = sim::FaultKind::kServerCrash,
                      .start = Millis(10 + victim * 10),
                      .duration = Millis(12),
                      .server = victim, .wipe_on_restart = true});
  }
  // x500: a ~90 us stripe SET takes ~45 ms, past the op deadline.
  for (const auto& [server, start_ms] : {std::pair{1u, 68}, {6u, 84}}) {
    events.push_back({.kind = sim::FaultKind::kServerSlow,
                      .start = Millis(start_ms), .duration = Millis(12),
                      .server = server, .slow_factor = 500.0});
  }
  for (std::uint32_t src : {3u, 7u}) {
    events.push_back({.kind = sim::FaultKind::kLinkFault,
                      .start = Millis(5), .duration = Millis(80),
                      .src = src, .dst = 5, .loss_prob = 0.5});
  }
  return events;
}

fs::VfsContext RootContext(trace::Tracer* tracer, std::uint32_t node,
                           const std::string& name) {
  fs::VfsContext ctx{node, 0};
  if (tracer != nullptr) ctx.trace = tracer->StartTrace(name, "workflow", node);
  return ctx;
}

sim::Task WriteChaosFile(sim::Simulation& sim, fs::Vfs& vfs,
                         trace::Tracer* tracer, sim::SimTime start,
                         std::uint32_t node, std::string path,
                         std::uint64_t size, std::uint64_t seed,
                         std::uint8_t& acked) {
  co_await sim.Delay(start);
  const fs::VfsContext ctx = RootContext(tracer, node, "write " + path);
  auto created = co_await vfs.Create(ctx, path);
  if (created.ok()) {
    const Status wrote = co_await vfs.Write(ctx, created.value(),
                                            Bytes::Synthetic(size, seed));
    const Status closed = co_await vfs.Close(ctx, created.value());
    acked = wrote.ok() && closed.ok();
  }
  trace::End(ctx.trace);
}

sim::Task VerifyChaosFile(fs::Vfs& vfs, trace::Tracer* tracer,
                          std::uint32_t node, std::string path,
                          std::uint64_t size, std::uint64_t seed,
                          Verdict& verdict) {
  const fs::VfsContext ctx = RootContext(tracer, node, "read " + path);
  auto opened = co_await vfs.Open(ctx, path);
  Status failed = opened.ok() ? Status::Ok() : opened.status();
  Bytes out;
  if (opened.ok()) {
    while (true) {
      auto chunk = co_await vfs.Read(ctx, opened.value(), out.size(), size);
      if (!chunk.ok()) failed = chunk.status();
      if (!chunk.ok() || chunk->empty()) break;
      out.Append(*chunk);
    }
    // lint: allow(ignored-status) read handle teardown cannot fail usefully
    co_await vfs.Close(ctx, opened.value());
  }
  if (failed.ok()) {
    verdict = out.ContentEquals(Bytes::Synthetic(size, seed))
                  ? Verdict::kIntact
                  : Verdict::kCorrupt;
  } else if (failed.code() == ErrorCode::kNotFound) {
    verdict = Verdict::kNotFound;
  } else if (opened.ok() &&
             failed.code() == ErrorCode::kUnavailablePermanent) {
    verdict = Verdict::kUnavailablePermanent;  // only a read finds these
  } else {
    verdict = Verdict::kFailed;
  }
  trace::End(ctx.trace);
}

void LaunchWave(sim::Simulation& sim, fs::Vfs& vfs, const Wave& wave,
                WaveResult& result, trace::Tracer* tracer) {
  result.acked.assign(wave.files, 0);
  for (std::uint32_t i = 0; i < wave.files; ++i) {
    WriteChaosFile(sim, vfs, tracer, wave.spacing * i, i % wave.nodes,
                   wave.prefix + std::to_string(i), wave.file_size,
                   wave.seed_base + i, result.acked[i]);
  }
}

void VerifyWave(fs::Vfs& vfs, const Wave& wave, WaveResult& result,
                trace::Tracer* tracer) {
  result.verdicts.assign(wave.files, Verdict::kUnread);
  for (std::uint32_t i = 0; i < wave.files; ++i) {
    VerifyChaosFile(vfs, tracer, i % wave.nodes,
                    wave.prefix + std::to_string(i), wave.file_size,
                    wave.seed_base + i, result.verdicts[i]);
  }
}

sim::Task RunTransitions(sim::Simulation& sim, kv::Membership& membership,
                         kv::Migrator& migrator,
                         std::vector<TransitionStep> steps,
                         TransitionReport& report) {
  report.steps.assign(steps.size(), {});
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const TransitionStep& step = steps[i];
    co_await sim.Delay(step.wait_before);
    const sim::SimTime begin = sim.now();
    const bool join = step.kind == Transition::kJoin;
    if (join) {
      (void)membership.BeginJoin(step.server);
    } else {
      membership.BeginDrain(step.server);
    }
    for (int runs = 0; membership.migrating() && runs < 32; ++runs) {
      // a run that did not converge is resumed by the next one
      (void)co_await migrator.Rebalance();
      if (step.pause_between_runs != 0) {
        co_await sim.Delay(step.pause_between_runs);
      }
    }
    // A join names a node, a drain a server; only the drain's state is read.
    report.steps[i] = {!membership.migrating() &&
                           (join || membership.state(step.server) ==
                                        kv::NodeState::kLeft),
                       sim.now() - begin};
  }
  report.done = true;
}

}  // namespace memfs::workloads
