#include "net/network.hpp"

#include <algorithm>
#include <cassert>

namespace net {

Network::Network(sim::Scheduler& sched, NetworkConfig config)
    : sched_(sched),
      config_(config),
      rng_(config.seed),
      fault_rng_(config.seed ^ 0xFA17FA17FA17FA17ULL) {
  assert(config_.machine_count > 0);
  set_telemetry(nullptr);
}

void Network::set_telemetry(telemetry::Hub* hub) {
  if (auto* r = telemetry::counter_store(hub, own_counters_)) {
    msgs_ctr_ = r->counter("net.messages");
    bytes_ctr_ = r->counter("net.bytes");
    dropped_ctr_ = r->counter("net.dropped");
    dup_ctr_ = r->counter("net.duplicated");
    delayed_ctr_ = r->counter("net.delayed");
  }
}

sim::Duration Network::propagation_latency(MachineId from, MachineId to) const {
  if (from == to) return config_.loopback_latency;
  return config_.inter_machine_rtt / 2;
}

sim::Duration Network::transfer_time(MachineId from, MachineId to,
                                     std::uint64_t payload_bytes) {
  const sim::Duration prop = propagation_latency(from, to);
  const double tx_seconds =
      static_cast<double>(payload_bytes) / config_.bandwidth_bytes_per_sec;
  sim::Duration total = prop + sim::seconds(tx_seconds);
  if (config_.jitter_fraction > 0.0) {
    const double jitter =
        rng_.uniform(-config_.jitter_fraction, config_.jitter_fraction);
    total += static_cast<sim::Duration>(static_cast<double>(prop) * jitter);
  }
  return std::max<sim::Duration>(total, 0);
}

void Network::send(MachineId from, MachineId to, std::uint64_t payload_bytes,
                   std::function<void()> on_arrival) {
  assert(from >= 0 && from < config_.machine_count);
  assert(to >= 0 && to < config_.machine_count);
  msgs_ctr_->add();
  bytes_ctr_->add(payload_bytes);
  if (faults_.active()) {
    if (faults_.drop_probability > 0.0 &&
        fault_rng_.chance(faults_.drop_probability)) {
      dropped_ctr_->add();
      return;
    }
    sim::Duration extra = 0;
    if (faults_.delay_probability > 0.0 &&
        fault_rng_.chance(faults_.delay_probability)) {
      delayed_ctr_->add();
      extra = static_cast<sim::Duration>(fault_rng_.uniform(
          0.0, static_cast<double>(faults_.max_extra_delay)));
    }
    if (faults_.duplicate_probability > 0.0 &&
        fault_rng_.chance(faults_.duplicate_probability)) {
      dup_ctr_->add();
      // The copy draws an independent transfer time: duplicates reorder.
      sched_.schedule_after(transfer_time(from, to, payload_bytes),
                            on_arrival);
    }
    sched_.schedule_after(transfer_time(from, to, payload_bytes) + extra,
                          std::move(on_arrival));
    return;
  }
  sched_.schedule_after(transfer_time(from, to, payload_bytes),
                        std::move(on_arrival));
}

void Network::broadcast(MachineId from, std::uint64_t payload_bytes,
                        std::function<void(MachineId)> on_arrival) {
  for (MachineId m = 0; m < config_.machine_count; ++m) {
    if (m == from) continue;
    send(from, m, payload_bytes, [on_arrival, m]() { on_arrival(m); });
  }
}

}  // namespace net
