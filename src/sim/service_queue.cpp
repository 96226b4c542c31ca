#include "sim/service_queue.hpp"

namespace sim {

void ServiceQueue::set_telemetry(telemetry::Hub* hub,
                                 const std::string& track_name) {
  hub_ = hub;
  track_name_ = track_name;
  if (auto* t = telemetry::tracer(hub_)) {
    track_ = t->track(track_name, "service");
  }
  if (auto* r = telemetry::counter_store(hub_, own_counters_)) {
    completed_ctr_ = r->counter(track_name + ".completed");
    rejected_ctr_ = r->counter(track_name + ".rejected");
  }
  // Worker 0 reuses the base track so a single-worker queue's trace output
  // is unchanged; extra workers allocate their tracks lazily on first use.
  workers_[0].track = track_;
  workers_[0].track_ready = true;
  for (std::size_t w = 1; w < workers_.size(); ++w) {
    workers_[w].track_ready = false;
  }
}

telemetry::TrackId ServiceQueue::worker_track(std::size_t w) {
  Worker& worker = workers_[w];
  if (!worker.track_ready) {
    if (auto* t = telemetry::tracer(hub_)) {
      worker.track =
          t->track(track_name_ + "#w" + std::to_string(w), "service");
    }
    worker.track_ready = true;
  }
  return worker.track;
}

void ServiceQueue::trace_depth() {
  if (auto* t = telemetry::tracer(hub_)) {
    t->counter(track_, "queued", sched_.now(),
               static_cast<double>(pending_.size()));
  }
}

bool ServiceQueue::enqueue(Duration service_time, std::function<void()> on_done,
                          const char* label) {
  if (pending_.size() >= capacity_) {
    rejected_ctr_->add();
    return false;
  }
  pending_.push_back(
      Job{service_time, std::move(on_done), label, sched_.now()});
  trace_depth();
  try_start();
  return true;
}

void ServiceQueue::set_servers(std::size_t n) {
  servers_ = n > 0 ? n : 1;
  // Never shrink the worker table: a worker beyond the new count may still
  // be mid-job, and its stats stay addressable for reports.
  if (workers_.size() < servers_) workers_.resize(servers_);
  try_start();
}

void ServiceQueue::try_start() {
  while (busy_ < servers_ && !pending_.empty()) {
    // Deterministic assignment: lowest-index idle worker takes the job. With
    // one worker this is always worker 0 — the original serialized queue.
    std::size_t w = 0;
    while (w < servers_ && workers_[w].busy) ++w;
    if (w >= servers_) break;

    Job job = std::move(pending_.front());
    pending_.pop_front();
    workers_[w].busy = true;
    ++busy_;
    if (telemetry::tracer(hub_)) {
      const TimePoint start = sched_.now();
      const telemetry::TrackId track = worker_track(w);
      auto* t = telemetry::tracer(hub_);
      // The wait span is only emitted when the job actually queued — a
      // request served immediately contributes nothing to the serialization
      // bottleneck and would double the event volume.
      if (start > job.enqueued) {
        t->complete(track, "queue_wait", job.enqueued, start - job.enqueued);
      }
      t->complete(track, job.label ? job.label : "service", start,
                  job.service_time);
    }
    // The completion event re-checks the queue, so back-to-back jobs chain
    // without gaps (work-conserving workers).
    sched_.schedule_after(job.service_time,
                          [this, w, job = std::move(job)]() mutable {
                            finish(w, job);
                          });
  }
}

void ServiceQueue::finish(std::size_t worker, const Job& job) {
  workers_[worker].busy = false;
  workers_[worker].completed += 1;
  workers_[worker].busy_time += job.service_time;
  --busy_;
  total_busy_ += job.service_time;
  completed_ctr_->add();
  trace_depth();
  if (job.on_done) job.on_done();
  try_start();
}

ServiceQueue::WorkerStats ServiceQueue::worker_stats(std::size_t w) const {
  if (w >= workers_.size()) return {};
  return {workers_[w].completed, workers_[w].busy_time};
}

Duration ServiceQueue::backlog() const {
  Duration sum = 0;
  for (const Job& j : pending_) sum += j.service_time;
  return sum / static_cast<Duration>(servers_);
}

}  // namespace sim
