#pragma once
// Telemetry hub: metrics registry + tracer + observability pillar (sampler,
// flight recorder, watchdogs) — one of each per simulation.
//
// Components hold a `telemetry::Hub*` (nullptr or disabled = off) and guard
// every span, journal, gauge and histogram site with the accessors below:
//
//   if (auto* t = telemetry::tracer(hub_)) t->complete(track_, "op", t0, d);
//   if (auto* f = telemetry::flight(hub_)) f->record(now, "relayer", ...);
//
// Counters are the components' own accounting, so they always count: each
// binds once via counter_store() (below) and is bumped with an unguarded
// add(); the components' stats accessors read the same counter.
//
// Two off switches (counters keep counting, into the private stores):
//   * runtime — a Hub is disabled by default; Testbed enables it only for
//     telemetry runs. Disabled cost is a single pointer/bool check per site
//     (measured < 2% bench wall time; see DESIGN.md §4d). The flight()
//     accessor additionally requires the recorder to be armed, so journaling
//     stays off (one extra branch) even on telemetry runs that did not ask
//     for it.
//   * compile time — configure with -DIBC_TELEMETRY=OFF to define
//     IBC_TELEMETRY_DISABLED: the accessors become constexpr nullptr and
//     every guarded block is dead-code-eliminated.
//
// The hub owns all five stores together so a single trigger — an invariant
// Violation, a failed campaign phase, an abandoned packet — can fold the
// event journal, the tripped watchdogs, a metrics snapshot, and the sampled
// series into one flight-dump file (trigger_flight_dump; rendered by
// tools/run_report). The first trigger wins; repeats are counted, not
// re-dumped, so the dump always shows the run's first failure.
//
// Ownership: Testbed owns the Hub (like the Scheduler); experiments and
// tests wire component pointers. One hub per experiment keeps the parallel
// sweep runner race-free — never share a hub across worker threads.

#include <cassert>
#include <string>
#include <string_view>

#include "telemetry/flight.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/series.hpp"
#include "telemetry/trace.hpp"
#include "telemetry/watchdog.hpp"

namespace telemetry {

class Hub {
 public:
  Hub() = default;
  Hub(const Hub&) = delete;
  Hub& operator=(const Hub&) = delete;

  void enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  Registry& registry() { return registry_; }
  const Registry& registry() const { return registry_; }
  Tracer& trace_sink() { return tracer_; }
  const Tracer& trace_sink() const { return tracer_; }
  Sampler& sampler() { return sampler_; }
  const Sampler& sampler() const { return sampler_; }
  FlightRecorder& flight() { return flight_; }
  const FlightRecorder& flight() const { return flight_; }
  Watchdog& watchdog() { return watchdog_; }
  const Watchdog& watchdog() const { return watchdog_; }

  /// Arms auto-dumping: the first trigger_flight_dump() writes here. Empty
  /// (the default) disables dumping — triggers are still counted.
  void set_flight_dump_path(std::string path) {
    flight_dump_path_ = std::move(path);
  }
  const std::string& flight_dump_path() const { return flight_dump_path_; }

  /// Failure hook. First call with a dump path set writes the sectioned
  /// flight dump (journal + watchdogs + metrics + series); later calls only
  /// increment dumps_suppressed() so the file keeps the *first* failure.
  void trigger_flight_dump(std::string_view reason, sim::TimePoint t);

  std::size_t dump_triggers() const { return dump_triggers_; }
  std::size_t dumps_suppressed() const { return dumps_suppressed_; }

  /// The dump text trigger_flight_dump() writes (exposed for tests and for
  /// callers that want the dump without a file).
  std::string render_flight_dump(std::string_view reason,
                                 sim::TimePoint t) const;

 private:
  bool enabled_ = false;
  Registry registry_;
  Tracer tracer_;
  FlightRecorder flight_;
  Sampler sampler_{&registry_};
  Watchdog watchdog_{&sampler_};
  std::string flight_dump_path_;
  std::size_t dump_triggers_ = 0;
  std::size_t dumps_suppressed_ = 0;
};

#ifndef IBC_TELEMETRY_DISABLED

inline Registry* metrics(Hub* hub) {
  return hub && hub->enabled() ? &hub->registry() : nullptr;
}
inline Tracer* tracer(Hub* hub) {
  return hub && hub->enabled() ? &hub->trace_sink() : nullptr;
}
/// Non-null only when the hub is enabled AND the recorder was armed — the
/// journaling call sites stay one-branch-cheap on runs without a recorder.
inline FlightRecorder* flight(Hub* hub) {
  return hub && hub->enabled() && hub->flight().armed() ? &hub->flight()
                                                        : nullptr;
}
inline Sampler* sampler(Hub* hub) {
  return hub && hub->enabled() ? &hub->sampler() : nullptr;
}
inline Watchdog* watchdog(Hub* hub) {
  return hub && hub->enabled() ? &hub->watchdog() : nullptr;
}

#else  // compile-time kill switch: guarded blocks fold to nothing.

inline constexpr Registry* metrics(Hub*) { return nullptr; }
inline constexpr Tracer* tracer(Hub*) { return nullptr; }
inline constexpr FlightRecorder* flight(Hub*) { return nullptr; }
inline constexpr Sampler* sampler(Hub*) { return nullptr; }
inline constexpr Watchdog* watchdog(Hub*) { return nullptr; }

#endif

/// Where a component (re)binds its counters: the hub's registry when
/// metrics are on (metrics.csv and the series carry them), else `own`, its
/// private store — nullptr once they are bound there. Bind before anything
/// is counted.
inline Registry* counter_store(Hub* hub, Registry& own) {
  own.for_each_scalar([](const std::string&, [[maybe_unused]] double v) {
    assert(v == 0 && "counters rebound after counting began");
  });
  if (Registry* m = metrics(hub)) return m;
  return own.size() == 0 ? &own : nullptr;
}

}  // namespace telemetry
