#include "core/sharded_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>

#include "util/rng.hpp"

namespace msol::core {

std::string to_string(ShardRouting routing) {
  switch (routing) {
    case ShardRouting::kHash: return "hash";
    case ShardRouting::kRoundRobin: return "round-robin";
    case ShardRouting::kLeastLoaded: return "least-loaded";
  }
  return "unknown";
}

ShardRouting parse_shard_routing(const std::string& text) {
  if (text == "hash") return ShardRouting::kHash;
  if (text == "round-robin") return ShardRouting::kRoundRobin;
  if (text == "least-loaded") return ShardRouting::kLeastLoaded;
  throw std::invalid_argument(
      "parse_shard_routing: unknown routing '" + text +
      "' (expected hash, round-robin, or least-loaded)");
}

ShardedEngine::ShardedEngine(const platform::Platform& platform,
                             const SchedulerFactory& factory,
                             ShardedEngineOptions options)
    : options_(std::move(options)), partition_(platform, options_.shards) {
  if (options_.shard_threads < 0) {
    throw std::invalid_argument(
        "ShardedEngine: shard_threads must be >= 0 (0 = hardware "
        "concurrency)");
  }
  const int num = partition_.num_shards();
  schedulers_.reserve(static_cast<std::size_t>(num));
  engines_.reserve(static_cast<std::size_t>(num));
  shard_tasks_.resize(static_cast<std::size_t>(num));
  shard_specs_.resize(static_cast<std::size_t>(num));
  // The slave-addressed options are taken out of options_ and re-expressed
  // per shard below, so the global profiles are freed once construction
  // ends and each profile lives only inside its shard engine. What stays in
  // options_.engine holds no per-slave data; copying it per shard carries
  // every other field through untouched.
  const std::vector<platform::AvailabilityProfile> availability =
      std::exchange(options_.engine.availability, {});
  const std::vector<SlowdownWindow> slowdowns =
      std::exchange(options_.engine.slowdowns, {});
  for (int k = 0; k < num; ++k) {
    // At K=1 both rewrites are the identity, which is half of the
    // byte-identity guarantee (the other half is the identity partition).
    EngineOptions opts = options_.engine;
    opts.availability = partition_.slice_availability(availability, k);
    for (const SlowdownWindow& w : slowdowns) {
      if (w.slave < 0 || w.slave >= platform.size() ||
          partition_.shard_of(w.slave) != k) {
        continue;
      }
      SlowdownWindow local = w;
      local.slave = partition_.local_id(w.slave);
      opts.slowdowns.push_back(local);
    }
    schedulers_.push_back(factory());
    if (schedulers_.back() == nullptr) {
      throw std::invalid_argument(
          "ShardedEngine: scheduler factory returned null");
    }
    schedulers_.back()->reset();
    engines_.push_back(std::make_unique<OnePortEngine>(
        partition_.shard_platform(k), *schedulers_.back(), std::move(opts)));
  }
  int threads = options_.shard_threads;
  if (threads == 0) {
    threads = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  threads = std::min(threads, num);
  if (threads > 1) pool_ = std::make_unique<util::ThreadPool>(threads);
}

void ShardedEngine::for_each_shard(
    const std::function<void(std::size_t)>& fn) {
  if (pool_) {
    pool_->run(engines_.size(), fn);
  } else {
    for (std::size_t k = 0; k < engines_.size(); ++k) fn(k);
  }
}

int ShardedEngine::route_static(std::size_t i) const {
  const int num = num_shards();
  if (num == 1) return 0;
  switch (options_.routing) {
    case ShardRouting::kHash:
      return static_cast<int>(util::Rng::mix(static_cast<std::uint64_t>(i)) %
                              static_cast<std::uint64_t>(num));
    case ShardRouting::kRoundRobin:
      return static_cast<int>(i % static_cast<std::size_t>(num));
    case ShardRouting::kLeastLoaded:
      break;  // routed by the epoch loop, never statically
  }
  return 0;
}

void ShardedEngine::assign_to_shard(int k, TaskId global) {
  const std::size_t ks = static_cast<std::size_t>(k);
  shard_tasks_[ks].push_back(global);
  shard_specs_[ks].push_back(loaded_[static_cast<std::size_t>(global)]);
  engines_[ks]->inject_task(loaded_[static_cast<std::size_t>(global)]);
}

void ShardedEngine::load(const Workload& workload) {
  if (loaded_any_) {
    throw std::logic_error("ShardedEngine: load() may be called only once");
  }
  loaded_any_ = true;
  loaded_ = workload.tasks();
  // Stateless routings are a pure function of the injection index, so the
  // whole slice can be preloaded and each shard runs with full workload
  // semantics (future releases included). Least-loaded must observe shard
  // state at each release instant — run_to_completion's epoch loop routes.
  if (options_.routing == ShardRouting::kLeastLoaded && num_shards() > 1) {
    return;
  }
  for (std::size_t i = 0; i < loaded_.size(); ++i) {
    assign_to_shard(route_static(i), static_cast<TaskId>(i));
  }
}

void ShardedEngine::run_to_completion() {
  if (ran_) {
    throw std::logic_error(
        "ShardedEngine: run_to_completion() may be called only once");
  }
  ran_ = true;
  const int num = num_shards();
  if (options_.routing == ShardRouting::kLeastLoaded && num > 1) {
    // Lockstep epochs: advance every shard to the release instant (one pool
    // barrier when threaded), then route that instant's tasks (in injection
    // order) by observed load. Every load read happens after the barrier
    // and every injection before the next one, so the decisions — and the
    // merged output — are identical at any thread count.
    load_cache_.assign(static_cast<std::size_t>(num), ShardLoad{});
    std::size_t i = 0;
    while (i < loaded_.size()) {
      const Time t = loaded_[i].release;
      for_each_shard([&](std::size_t k) { engines_[k]->run_until(t); });
      // inject_task touches neither pending_count() nor port_free_at() (the
      // release is processed by a later run_until), so every task sharing
      // this release instant routes to the same shard — decide once per
      // epoch, not once per injection.
      const int best = route_least_loaded(t);
      while (i < loaded_.size() && loaded_[i].release == t) {
        assign_to_shard(best, static_cast<TaskId>(i));
        ++i;
      }
    }
  }
  for_each_shard([&](std::size_t k) { engines_[k]->run_to_completion(); });
  merge();
}

int ShardedEngine::route_least_loaded(Time t) {
  const int num = num_shards();
  // Refresh only shards whose load state moved since the last epoch:
  // load_stamp() bumps on every pending push/erase, and the master port's
  // busy horizon only changes inside a commit (which erases a pending
  // entry first), so an unchanged stamp pins both cached fields.
  for (int k = 0; k < num; ++k) {
    const OnePortEngine& e = shard_engine(k);
    ShardLoad& c = load_cache_[static_cast<std::size_t>(k)];
    const std::uint64_t stamp = e.load_stamp();
    if (c.stamp != stamp) {
      c.pending = e.pending_count();
      c.port_free = e.port_free_at();
      c.stamp = stamp;
    }
  }
  // Same comparison scan as the original per-injection loop (the
  // eps-tolerant port tie-break is not a total order, so the scan shape is
  // load-bearing), over cached records. port_free was captured at an
  // earlier engine now(); port_free_at() = max(busy horizon, now) and
  // epoch times are monotone, so clamping to the current instant restores
  // today's value exactly.
  int best = 0;
  int best_pending = load_cache_[0].pending;
  Time best_free = std::max(load_cache_[0].port_free, t);
  for (int k = 1; k < num; ++k) {
    const ShardLoad& c = load_cache_[static_cast<std::size_t>(k)];
    const Time free_k = std::max(c.port_free, t);
    if (c.pending < best_pending ||
        (c.pending == best_pending && free_k < best_free - kTimeEps)) {
      best = k;
      best_pending = c.pending;
      best_free = free_k;
    }
  }
  return best;
}

void ShardedEngine::merge() {
  merged_schedule_.clear();
  merged_trace_.clear();
  merged_disruption_ = DisruptionStats{};
  const int num = num_shards();

  // Schedules: per-shard records are in commit order, so send_start is
  // monotone within a shard and a K-way head merge (ties to the lower
  // shard id) yields one globally send_start-sorted, byte-stable stream.
  {
    std::vector<std::size_t> pos(static_cast<std::size_t>(num), 0);
    for (;;) {
      int best = -1;
      for (int k = 0; k < num; ++k) {
        const auto& recs = shard_engine(k).schedule().records();
        const std::size_t p = pos[static_cast<std::size_t>(k)];
        if (p >= recs.size()) continue;
        if (best < 0 ||
            recs[p].send_start <
                shard_engine(best).schedule().records()
                    [pos[static_cast<std::size_t>(best)]].send_start) {
          best = k;
        }
      }
      if (best < 0) break;
      const std::size_t bs = static_cast<std::size_t>(best);
      TaskRecord rec = shard_engine(best).schedule().records()[pos[bs]++];
      rec.task = shard_tasks_[bs][static_cast<std::size_t>(rec.task)];
      rec.slave = partition_.global_id(best, rec.slave);
      merged_schedule_.add(rec);
    }
  }

  // Traces: a shard's event log is in commitment order, not time order, so
  // the head merge keyed by event time is an interleaving that preserves
  // each shard's internal order — the same discipline, and equally
  // deterministic; at K=1 it is the identity.
  {
    std::vector<std::size_t> pos(static_cast<std::size_t>(num), 0);
    for (;;) {
      int best = -1;
      for (int k = 0; k < num; ++k) {
        const auto& evs = shard_engine(k).trace().events();
        const std::size_t p = pos[static_cast<std::size_t>(k)];
        if (p >= evs.size()) continue;
        if (best < 0 ||
            evs[p].time <
                shard_engine(best).trace().events()
                    [pos[static_cast<std::size_t>(best)]].time) {
          best = k;
        }
      }
      if (best < 0) break;
      const std::size_t bs = static_cast<std::size_t>(best);
      TraceEvent ev = shard_engine(best).trace().events()[pos[bs]++];
      if (ev.task >= 0) {
        ev.task = shard_tasks_[bs][static_cast<std::size_t>(ev.task)];
      }
      if (ev.slave >= 0) ev.slave = partition_.global_id(best, ev.slave);
      merged_trace_.record(ev);
    }
  }

  for (int k = 0; k < num; ++k) {
    const DisruptionStats& d = shard_engine(k).disruption();
    merged_disruption_.redispatches += d.redispatches;
    merged_disruption_.disruptive_outages += d.disruptive_outages;
    merged_disruption_.lost_work += d.lost_work;
  }
}

Workload ShardedEngine::shard_workload(int k) const {
  return Workload(shard_specs_[static_cast<std::size_t>(k)]);
}

}  // namespace msol::core
