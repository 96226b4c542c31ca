#pragma once
// The benchmark's workloads, as ExperimentConfigs built the way the repo's
// benches build them (bench/common.hpp, bench_ablation_mitigations.cpp,
// bench_scale_transfers.cpp). README.md beside this directory says why each
// one was chosen.

#include <cstdint>
#include <optional>
#include <string_view>

#include "xcc/experiment.hpp"

namespace perfbench {

/// Workload config for `name` and `seed`, or nullopt for an unknown name.
/// `blocks` overrides the measurement window in source-chain blocks (0 =
/// the benchmark's own length); inclusion-zipf sizes its submission to it.
std::optional<xcc::ExperimentConfig> workload_config(std::string_view name,
                                                     std::uint64_t seed,
                                                     int blocks = 0);

}  // namespace perfbench
