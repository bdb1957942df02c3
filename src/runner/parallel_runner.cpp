#include "runner/parallel_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "experiments/campaign.hpp"
#include "util/thread_pool.hpp"

namespace msol::runner {

ParallelRunner::ParallelRunner(RunnerOptions options)
    : options_(std::move(options)) {}

RunReport ParallelRunner::run(const ScenarioGrid& grid,
                              std::vector<ResultSink*> sinks) {
  return run_cells(expand(grid), std::move(sinks));
}

RunReport ParallelRunner::run_cells(const std::vector<ScenarioSpec>& cells,
                                    std::vector<ResultSink*> sinks) {
  const auto start = std::chrono::steady_clock::now();
  const std::size_t total = cells.size();

  std::size_t threads = static_cast<std::size_t>(
      options_.threads > 0 ? options_.threads
                           : std::max(1u, std::thread::hardware_concurrency()));
  threads = std::max<std::size_t>(1, std::min(threads, std::max<std::size_t>(
                                                           total, 1)));

  // Completed campaigns parked until every lower-indexed cell has been
  // emitted; slot i is freed as soon as cell i's records reach the sinks,
  // so peak memory is bounded by the completion skew, not the grid size.
  std::vector<std::unique_ptr<experiments::CampaignResult>> pending(total);

  // Cells already durable from a previous run (resume): never executed,
  // never re-emitted, but the emission cursor must pass over them so the
  // cells that do run still stream in ascending order.
  std::vector<char> skip_mask(total, 0);
  std::size_t skipped = 0;
  for (std::size_t i = 0; i < total; ++i) {
    if (options_.skip.count(cells[i].index) > 0) {
      skip_mask[i] = 1;
      ++skipped;
    }
  }

  std::atomic<std::size_t> next_cell{0};
  std::atomic<bool> abort{false};
  std::mutex emit_mutex;  // guards pending, next_emit, sinks, progress
  std::condition_variable emit_cv;  // signaled when next_emit advances
  std::size_t next_emit = 0;
  std::size_t completed = 0;
  std::size_t records = 0;
  std::exception_ptr first_error;

  // Flushes the contiguous run of ready cells in index order (caller holds
  // emit_mutex); whichever worker completes the gap cell drains the backlog.
  const auto drain = [&]() {
    while (next_emit < total &&
           (skip_mask[next_emit] || pending[next_emit] != nullptr)) {
      if (!skip_mask[next_emit]) {
        std::size_t cell_records = 0;
        for (const experiments::AlgorithmResult& algorithm :
             pending[next_emit]->algorithms) {
          const ResultRecord record{cells[next_emit], algorithm};
          for (ResultSink* sink : sinks) sink->consume(record);
          ++records;
          ++cell_records;
        }
        // Durable-commit point: data sinks flush, then a trailing
        // ManifestSink records the cell as complete.
        for (ResultSink* sink : sinks) {
          sink->cell_complete(cells[next_emit].index, cell_records);
        }
        pending[next_emit].reset();
      }
      ++next_emit;
    }
    emit_cv.notify_all();  // windowed workers gate on next_emit
  };

  const auto worker = [&]() {
    while (!abort.load(std::memory_order_relaxed)) {
      const std::size_t i = next_cell.fetch_add(1);
      if (i >= total) break;
      try {
        if (skip_mask[i]) {
          std::lock_guard<std::mutex> lock(emit_mutex);
          ++completed;
          drain();
          if (options_.progress) options_.progress(completed, total);
          continue;
        }
        if (options_.window > 0) {
          // Bounded run-ahead: park until this cell is within the window of
          // the emission cursor. Cells are claimed in index order, so the
          // worker holding the cursor's own cell always satisfies the
          // predicate immediately — no circular wait is possible.
          std::unique_lock<std::mutex> lock(emit_mutex);
          emit_cv.wait(lock, [&] {
            return abort.load(std::memory_order_relaxed) ||
                   i < next_emit + options_.window;
          });
          if (abort.load(std::memory_order_relaxed)) break;
        }
        auto result = std::make_unique<experiments::CampaignResult>(
            experiments::run_campaign(cells[i].config));

        std::lock_guard<std::mutex> lock(emit_mutex);
        pending[i] = std::move(result);
        ++completed;
        drain();
        if (options_.progress) options_.progress(completed, total);
      } catch (...) {
        std::lock_guard<std::mutex> lock(emit_mutex);
        if (!first_error) first_error = std::current_exception();
        abort.store(true, std::memory_order_relaxed);
        emit_cv.notify_all();  // release any window-parked workers
      }
    }
  };

  // `threads` concurrent workers on the shared pool machinery (the caller
  // is one of them; at threads == 1 the pool spawns nothing and this is the
  // old inline call). Workers catch everything into first_error, so the
  // pool's own error channel never fires here.
  {
    util::ThreadPool pool(static_cast<int>(threads));
    pool.run(threads, [&](std::size_t) { worker(); });
  }

  // Close sinks on the error path too: the in-order prefix emitted before
  // the failure is flushed to disk and — together with the manifest — is
  // precisely where a --resume run picks up. Rethrowing first used to leave
  // CSV/JSONL files truncated at the stream buffer boundary. A close()
  // failure (e.g. flush hitting a full disk) becomes the run's error only
  // when no cell failure beat it to it — the first error always wins.
  for (ResultSink* sink : sinks) {
    try {
      sink->close();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);

  RunReport report;
  report.cells = total;
  report.records = records;
  report.skipped = skipped;
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return report;
}

}  // namespace msol::runner
