#pragma once
// k-worker FIFO service queue (default k=1: a single serialized server).
//
// Models any resource that processes work off a shared FIFO: most
// importantly the Tendermint RPC server, whose inability to serve queries in
// parallel is the paper's headline bottleneck (69% of cross-chain processing
// time, §IV-B). Jobs are enqueued with a service duration; free workers pick
// them up in FIFO order, invoking each job's completion callback when its
// service time elapses.
//
// Worker assignment is deterministic: a job always goes to the lowest-index
// idle worker, so same-seed reruns are byte-identical for any worker count,
// and the k=1 configuration is bit-for-bit the original single-server queue.

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "sim/scheduler.hpp"
#include "telemetry/telemetry.hpp"

namespace sim {

class ServiceQueue {
 public:
  /// `capacity` bounds queued (not yet started) jobs; enqueue() fails beyond
  /// it, modelling connection-pool / request-queue overflow under overload.
  ServiceQueue(Scheduler& sched, std::size_t capacity =
                                     std::numeric_limits<std::size_t>::max())
      : sched_(sched), capacity_(capacity) {
    set_telemetry(nullptr, "");
  }

  ServiceQueue(const ServiceQueue&) = delete;
  ServiceQueue& operator=(const ServiceQueue&) = delete;

  /// Enqueues a job needing `service_time` of server time; `on_done` runs
  /// when service completes. Returns false (and drops the job) when the
  /// queue is full. `label` (a string literal, retained by pointer) names
  /// the job's service span in traces; nullptr falls back to "service".
  bool enqueue(Duration service_time, std::function<void()> on_done,
               const char* label = nullptr);

  /// Wires telemetry: queue-wait + service spans on a track named
  /// `track_name`, plus a queue-depth counter series. The queue-wait span is
  /// the paper's headline quantity — time a request sits behind the
  /// serialized Tendermint RPC server (§IV-B). Worker 0 owns the base track;
  /// workers k>0 get their own "<track_name>#wK" tracks on first use, so a
  /// k-worker pool shows k parallel service lanes in the trace viewer.
  void set_telemetry(telemetry::Hub* hub, const std::string& track_name);

  /// Number of parallel workers (default 1 = fully serialized). Raising it
  /// immediately starts waiting jobs; this is the "concurrent RPC" mitigation.
  void set_servers(std::size_t n);
  std::size_t servers() const { return servers_; }

  std::size_t queued() const { return pending_.size(); }
  std::size_t in_service() const { return busy_; }

  /// Virtual time a job arriving now would wait before *starting* service
  /// (exact for the single-worker case; an estimate otherwise).
  Duration backlog() const;

  /// Total jobs completed and total busy time, for utilisation reports.
  std::uint64_t completed() const { return completed_ctr_->value(); }
  Duration total_busy_time() const { return total_busy_; }
  std::uint64_t rejected() const { return rejected_ctr_->value(); }

  /// Per-worker utilisation, for the concurrent-RPC telemetry tracks and the
  /// ablation bench's load-balance report.
  struct WorkerStats {
    std::uint64_t completed = 0;
    Duration busy_time = 0;
  };
  /// Stats for worker `w` in [0, servers()); zero-valued for a worker that
  /// never ran a job.
  WorkerStats worker_stats(std::size_t w) const;

 private:
  struct Job {
    Duration service_time;
    std::function<void()> on_done;
    const char* label = nullptr;
    TimePoint enqueued = 0;
  };

  struct Worker {
    bool busy = false;
    std::uint64_t completed = 0;
    Duration busy_time = 0;
    telemetry::TrackId track = 0;
    bool track_ready = false;
  };

  void try_start();
  void finish(std::size_t worker, const Job& job);
  void trace_depth();
  telemetry::TrackId worker_track(std::size_t w);

  Scheduler& sched_;
  telemetry::Hub* hub_ = nullptr;
  telemetry::TrackId track_ = 0;
  std::string track_name_;
  telemetry::Registry own_counters_;  // counter store when metrics are off
  telemetry::Counter* completed_ctr_ = nullptr;
  telemetry::Counter* rejected_ctr_ = nullptr;
  std::size_t capacity_;
  std::size_t servers_ = 1;
  std::size_t busy_ = 0;
  std::deque<Job> pending_;
  std::vector<Worker> workers_ = std::vector<Worker>(1);
  Duration total_busy_ = 0;
};

}  // namespace sim
