#pragma once
// Simulated network.
//
// Reproduces the paper's testbed topology: five machines on a LAN with an
// enforced round-trip latency between any pair of distinct machines (200 ms
// for the WAN experiments, ~0 for the LAN baseline). Each machine hosts one
// validator of each chain; the relayer is colocated with machine 0 and talks
// to its full nodes over loopback — exactly the paper's §III-C deployment.
//
// Messages are delivered as scheduled callbacks after
//   one_way_latency(src, dst) + payload / bandwidth (+ jitter).

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/scheduler.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"

namespace net {

using MachineId = int;

/// Fault-injection knobs (all off by default). Faults draw from a dedicated
/// RNG stream, so enabling them never perturbs the jitter stream of an
/// otherwise-identical run, and a fixed seed reproduces the exact same
/// drop/duplicate/delay schedule.
struct FaultProfile {
  /// Probability a message is silently dropped.
  double drop_probability = 0.0;
  /// Probability a message is delivered twice (the copy draws its own
  /// transfer time, so duplicates also reorder).
  double duplicate_probability = 0.0;
  /// Probability a message is delayed by an extra uniform(0, max_extra_delay)
  /// — the reordering knob.
  double delay_probability = 0.0;
  sim::Duration max_extra_delay = 0;

  bool active() const {
    return drop_probability > 0.0 || duplicate_probability > 0.0 ||
           delay_probability > 0.0;
  }
};

struct NetworkConfig {
  int machine_count = 5;
  /// Round-trip latency between *distinct* machines; halved per direction.
  sim::Duration inter_machine_rtt = sim::millis(200);
  /// Loopback latency (same machine). The paper's LAN measures < 0.5 ms.
  sim::Duration loopback_latency = sim::micros(50);
  /// Link bandwidth in bytes per second (1 Gbps default); bounds the cost of
  /// shipping multi-megabyte query responses / WebSocket frames.
  double bandwidth_bytes_per_sec = 125'000'000.0;
  /// Relative jitter applied to propagation latency (0.05 = ±5%).
  double jitter_fraction = 0.05;
  std::uint64_t seed = 0x1bc0ffee;
};

class Network {
 public:
  Network(sim::Scheduler& sched, NetworkConfig config);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  int machine_count() const { return config_.machine_count; }
  const NetworkConfig& config() const { return config_; }

  /// One-way propagation latency between two machines (no payload term).
  sim::Duration propagation_latency(MachineId from, MachineId to) const;

  /// Full transfer time for `payload_bytes` from `from` to `to`, including
  /// deterministic jitter drawn from the network's RNG stream.
  sim::Duration transfer_time(MachineId from, MachineId to,
                              std::uint64_t payload_bytes);

  /// Schedules `on_arrival` after transfer_time(). The payload itself is
  /// carried by the caller's closure; the network only models timing.
  void send(MachineId from, MachineId to, std::uint64_t payload_bytes,
            std::function<void()> on_arrival);

  /// Broadcast helper: sends to every machine except `from` (validators
  /// gossiping proposals/votes).
  void broadcast(MachineId from, std::uint64_t payload_bytes,
                 std::function<void(MachineId)> on_arrival);

  /// Installs (or clears, with a default-constructed profile) fault
  /// injection for all subsequent sends.
  void set_fault_profile(FaultProfile faults) { faults_ = faults; }
  const FaultProfile& fault_profile() const { return faults_; }

  /// Binds the traffic counters under `net.`: messages / bytes / dropped /
  /// duplicated / delayed. Call before the first send.
  void set_telemetry(telemetry::Hub* hub);

  std::uint64_t messages_sent() const { return msgs_ctr_->value(); }
  std::uint64_t bytes_sent() const { return bytes_ctr_->value(); }
  std::uint64_t messages_dropped() const { return dropped_ctr_->value(); }
  std::uint64_t messages_duplicated() const { return dup_ctr_->value(); }
  std::uint64_t messages_delayed() const { return delayed_ctr_->value(); }

 private:
  sim::Scheduler& sched_;
  NetworkConfig config_;
  util::Rng rng_;
  util::Rng fault_rng_;
  FaultProfile faults_;
  telemetry::Registry own_counters_;  // counter store when metrics are off
  telemetry::Counter* msgs_ctr_ = nullptr;
  telemetry::Counter* bytes_ctr_ = nullptr;
  telemetry::Counter* dropped_ctr_ = nullptr;
  telemetry::Counter* dup_ctr_ = nullptr;
  telemetry::Counter* delayed_ctr_ = nullptr;
};

}  // namespace net
