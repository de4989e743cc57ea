#pragma once

#include <string>
#include <vector>

#include "mapper/final_mapping.hpp"
#include "machine/dspfabric.hpp"

/// Iterative modulo scheduling (Rau, MICRO'94) on the clusterized DDG —
/// the compilation stage the paper schedules *after* HCA (Section 4.2
/// motivates the MII objective with it; implementing it realizes the
/// paper's stated future work).
///
/// Resources modeled per cycle (mod II): the single issue slot of every
/// computation node, and the DMA's `dmaSlots` simultaneous memory
/// requests. Dependence edges carry the producer's latency plus the wire
/// transport delay when the edge crosses CNs.
namespace hca::sched {

struct Schedule {
  int ii = 0;
  /// Issue cycle per final-DDG node; -1 for non-instructions.
  std::vector<int> cycleOf;
  /// Makespan: one past the last issue cycle.
  int length = 0;

  [[nodiscard]] int stages() const {
    return ii > 0 ? (length + ii - 1) / ii : 0;
  }
};

/// Largest II moduloSchedule tries before it reports failure.
inline constexpr int kMaxIi = 1024;

struct ModuloResult {
  bool ok = false;
  std::string failureReason;
  Schedule schedule;
  int attemptedIis = 0;  // how many II values were tried
  int evictions = 0;
};

/// Latency of the dependence edge producer -> consumer in the mapping
/// (producer latency + inter-CN transport if they sit on different CNs).
int edgeLatency(const mapper::FinalMapping& mapping,
                const machine::DspFabricModel& model, DdgNodeId producer,
                DdgNodeId consumer);

/// Schedules the mapping starting at `startIi` (usually the final MII),
/// trying each II up to kMaxIi.
ModuloResult moduloSchedule(const mapper::FinalMapping& mapping,
                            const machine::DspFabricModel& model, int startIi);

/// Checks every dependence and resource constraint of `schedule`; returns
/// a human-readable violation list (empty = valid).
std::vector<std::string> validateSchedule(const mapper::FinalMapping& mapping,
                                          const machine::DspFabricModel& model,
                                          const Schedule& schedule);

}  // namespace hca::sched
