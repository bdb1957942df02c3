#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/schedule.hpp"
#include "core/scheduler.hpp"
#include "core/trace.hpp"
#include "core/types.hpp"
#include "core/workload.hpp"
#include "platform/partition.hpp"
#include "platform/platform.hpp"
#include "util/thread_pool.hpp"

namespace msol::core {

/// How a ShardedEngine routes released tasks to shards. All three are
/// deterministic — a pure function of the task's injection index or of the
/// shard states at the release instant — so a sharded run is reproducible
/// at any worker count.
enum class ShardRouting : std::uint8_t {
  /// splitmix64(task index) % K: stateless, spreads any workload pattern.
  kHash,
  /// task index % K: stateless, exactly balanced counts.
  kRoundRobin,
  /// At each release instant, the shard with the fewest pending tasks
  /// (ties: earlier master-port free time, then lower shard id). The only
  /// routing that reads shard state, hence the only one that needs the
  /// lockstep epoch loop.
  kLeastLoaded,
};

std::string to_string(ShardRouting routing);
/// Inverse of to_string; throws std::invalid_argument on unknown names.
ShardRouting parse_shard_routing(const std::string& text);

/// Knobs for a ShardedEngine. `engine` holds the per-shard OnePortEngine
/// options in GLOBAL terms: `availability` has one profile per global slave
/// and `slowdowns` name global slave ids — the sharded engine slices and
/// remaps both to each shard's local ids, and keeps only the per-shard
/// slices (see ShardedEngine::shard_options).
struct ShardedEngineOptions {
  int shards = 1;
  ShardRouting routing = ShardRouting::kHash;
  /// Threads advancing the shard engines: 1 = sequential (the legacy
  /// in-thread loop), 0 = hardware concurrency, clamped to `shards`.
  /// Merged output is byte-identical at any value — stateless routings run
  /// the shards independently, and least-loaded synchronizes on a barrier
  /// at every release epoch before any shard state is read.
  int shard_threads = 1;
  EngineOptions engine;
};

/// One fresh scheduler instance per shard: schedulers are stateful (SRPT's
/// wait bookkeeping, meta-policy detectors), so shards cannot share one.
using SchedulerFactory = std::function<std::unique_ptr<OnlineScheduler>()>;

/// K independent one-port clusters simulating one fleet.
///
/// The platform is split by PlatformPartition (modulo striping, stable),
/// each shard gets its own OnePortEngine + scheduler instance + master
/// port, released tasks are routed to shards by a deterministic routing
/// layer, and the per-shard schedules/traces are interleaved back into a
/// single byte-stable global view (ids translated back to global task and
/// slave numbering).
///
/// Execution is parallel over shards when `shard_threads` > 1 (a
/// util::ThreadPool advances the K engines; each engine and its scheduler
/// are only ever touched by the thread that claimed its job, and every
/// read of shard state happens after the pool's barrier), sequential
/// otherwise — byte-identical either way, because routing and merging are
/// functions of per-shard states that do not depend on which thread
/// advanced them. Stateless routings (hash, round-robin) preload each
/// shard's slice up front and run shards independently to completion (one
/// pool batch, no barriers in between); least-loaded advances all shards
/// in lockstep release epochs (run_until each release instant — one pool
/// barrier — then route by observed load, inject, repeat), which is
/// reproducible because the shard states it reads are themselves
/// deterministic. The least-loaded decision itself is incremental: each
/// shard's (pending_count, port_free_at) is cached and refreshed only when
/// the engine's load_stamp() moved, so an epoch costs O(changed shards)
/// virtual probes instead of O(K) per injection — while the comparison
/// scan keeps the exact shape of the original loop, whose eps-tolerant
/// port tie-break is not a total order and would drift under any
/// reordering (the K>1 least-loaded golden traces pin its decisions).
///
/// Semantics vs the unsharded engine: K shards have K master ports and
/// shard-local pending sets, so for K > 1 this simulates a *federation* of
/// one-port clusters, not the paper's single-port model — schedules differ
/// from K=1 by design. At K=1 the partition is the identity, routing is
/// moot, and the sharded engine is byte-identical to OnePortEngine (golden
/// + differential suites pin this).
class ShardedEngine {
 public:
  /// Throws std::invalid_argument on shards < 1, shards > platform size, or
  /// shard_threads < 0.
  ShardedEngine(const platform::Platform& platform,
                const SchedulerFactory& factory, ShardedEngineOptions options);

  /// Loads the whole workload, routing each task to its shard (stateless
  /// routings route immediately; least-loaded defers routing to
  /// run_to_completion's epoch loop). Call once, before run_to_completion.
  void load(const Workload& workload);

  /// Runs every shard to completion and builds the merged global views.
  void run_to_completion();

  /// Merged schedule in global task/slave ids, interleaved by record
  /// send_start (ties: lower shard id); valid after run_to_completion.
  const Schedule& schedule() const { return merged_schedule_; }
  /// Merged trace in global ids, interleaved by event time (ties: lower
  /// shard id), preserving each shard's internal event order.
  const Trace& trace() const { return merged_trace_; }
  /// Disruption counters summed over shards.
  const DisruptionStats& disruption() const { return merged_disruption_; }

  int num_shards() const { return static_cast<int>(engines_.size()); }
  const platform::PlatformPartition& partition() const { return partition_; }
  OnePortEngine& shard_engine(int k) {
    return *engines_[static_cast<std::size_t>(k)];
  }
  const OnePortEngine& shard_engine(int k) const {
    return *engines_[static_cast<std::size_t>(k)];
  }
  OnlineScheduler& shard_scheduler(int k) {
    return *schedulers_[static_cast<std::size_t>(k)];
  }
  /// The slice of the loaded workload shard k executed, in its local task
  /// id order (valid after run_to_completion; per-shard validation uses it).
  Workload shard_workload(int k) const;
  /// The options shard k's engine ran with (availability sliced, slowdowns
  /// remapped to local slave ids): the shard engine's own copy.
  const EngineOptions& shard_options(int k) const {
    return shard_engine(k).options();
  }
  /// Global task id of shard k's local task `local`.
  TaskId global_task(int k, TaskId local) const {
    return shard_tasks_[static_cast<std::size_t>(k)]
                       [static_cast<std::size_t>(local)];
  }

 private:
  /// Stateless routing decision for global task index i; kLeastLoaded is
  /// handled by the epoch loop instead.
  int route_static(std::size_t i) const;
  /// Injects global task `global` into shard k, recording the id mapping.
  void assign_to_shard(int k, TaskId global);
  /// Runs fn(k) once per shard — on the pool (barrier semantics) when
  /// shard_threads resolved above 1, inline otherwise.
  void for_each_shard(const std::function<void(std::size_t)>& fn);
  /// Incremental kLeastLoaded decision at release instant t: refresh the
  /// cached load records of shards whose load_stamp() moved, then replay
  /// the original comparison scan over the cache.
  int route_least_loaded(Time t);
  /// Builds merged_schedule_ / merged_trace_ / merged_disruption_.
  void merge();

  ShardedEngineOptions options_;
  platform::PlatformPartition partition_;
  /// Worker pool advancing shards (null = sequential). One pool for the
  /// engine's lifetime: least-loaded runs one barrier per release epoch,
  /// and parked-worker handshakes are what make that affordable.
  std::unique_ptr<util::ThreadPool> pool_;

  /// Cached per-shard load snapshot for route_least_loaded(). `stamp`
  /// starts at a sentinel no engine ever reports so the first epoch
  /// refreshes everything.
  struct ShardLoad {
    int pending = 0;
    Time port_free = 0.0;
    std::uint64_t stamp = ~std::uint64_t{0};
  };
  std::vector<ShardLoad> load_cache_;
  std::vector<std::unique_ptr<OnlineScheduler>> schedulers_;
  std::vector<std::unique_ptr<OnePortEngine>> engines_;

  /// Global specs in injection order; kLeastLoaded routes from here.
  std::vector<TaskSpec> loaded_;
  bool loaded_any_ = false;
  bool ran_ = false;
  /// Per shard: local task id -> global task id, in injection order.
  std::vector<std::vector<TaskId>> shard_tasks_;
  /// Per shard: the specs injected, in local task id order.
  std::vector<std::vector<TaskSpec>> shard_specs_;

  Schedule merged_schedule_;
  Trace merged_trace_;
  DisruptionStats merged_disruption_;
};

}  // namespace msol::core
