#include "sched/modulo.hpp"

#include <algorithm>
#include <map>

#include "support/check.hpp"
#include "support/str.hpp"

namespace hca::sched {

int edgeLatency(const mapper::FinalMapping& mapping,
                const machine::DspFabricModel& model, DdgNodeId producer,
                DdgNodeId consumer) {
  const int base = model.config().latency.of(
      mapping.finalDdg.node(producer).op);
  const CnId src = mapping.cnOf[producer.index()];
  const CnId dst = mapping.cnOf[consumer.index()];
  if (!src.valid() || !dst.valid() || src == dst) return base;
  return base + model.copyLatency(src, dst);
}

namespace {

/// Scheduling budget per II attempt, in operations processed, as a
/// multiple of the op count (Rau uses a similar budget-with-eviction).
constexpr std::int64_t kBudgetFactor = 16;

struct ReservationTable {
  int ii;
  int dmaSlots;
  // cnBusy[cycle mod ii] = set of CNs issuing that cycle (bitmask).
  std::vector<std::uint64_t> cnBusy;
  std::vector<int> dmaUsed;

  ReservationTable(int ii_, int dmaSlots_, int numCns)
      : ii(ii_), dmaSlots(dmaSlots_),
        cnBusy(static_cast<std::size_t>(ii_), 0),
        dmaUsed(static_cast<std::size_t>(ii_), 0) {
    HCA_CHECK(numCns <= 64, "reservation table supports up to 64 CNs");
  }

  [[nodiscard]] bool fits(int cycle, CnId cn, bool isMem) const {
    const auto slot = static_cast<std::size_t>(((cycle % ii) + ii) % ii);
    if ((cnBusy[slot] >> cn.index()) & 1) return false;
    if (isMem && dmaUsed[slot] >= dmaSlots) return false;
    return true;
  }
  void reserve(int cycle, CnId cn, bool isMem) {
    const auto slot = static_cast<std::size_t>(((cycle % ii) + ii) % ii);
    cnBusy[slot] |= 1ULL << cn.index();
    if (isMem) ++dmaUsed[slot];
  }
  void release(int cycle, CnId cn, bool isMem) {
    const auto slot = static_cast<std::size_t>(((cycle % ii) + ii) % ii);
    cnBusy[slot] &= ~(1ULL << cn.index());
    if (isMem) --dmaUsed[slot];
  }
  /// Who occupies the CN's slot at this cycle (for eviction).
  [[nodiscard]] bool occupied(int cycle, CnId cn) const {
    const auto slot = static_cast<std::size_t>(((cycle % ii) + ii) % ii);
    return ((cnBusy[slot] >> cn.index()) & 1) != 0;
  }
};

}  // namespace

ModuloResult moduloSchedule(const mapper::FinalMapping& mapping,
                            const machine::DspFabricModel& model,
                            int startIi) {
  const auto& ddg = mapping.finalDdg;
  ModuloResult result;

  std::vector<DdgNodeId> ops;
  for (std::int32_t v = 0; v < ddg.numNodes(); ++v) {
    if (ddg::isInstruction(ddg.node(DdgNodeId(v)).op)) ops.emplace_back(v);
  }
  if (ops.empty()) {
    result.ok = true;
    result.schedule.ii = std::max(1, startIi);
    result.schedule.cycleOf.assign(
        static_cast<std::size_t>(ddg.numNodes()), -1);
    return result;
  }

  // Priority: height under the transport-aware latencies.
  const auto heights = ddg.heights(model.config().latency);
  std::vector<DdgNodeId> priority = ops;
  std::sort(priority.begin(), priority.end(),
            [&](DdgNodeId a, DdgNodeId b) {
              if (heights[a.index()] != heights[b.index()]) {
                return heights[a.index()] > heights[b.index()];
              }
              return a < b;
            });

  // Uses (consumer lists) for dependence checks.
  std::vector<std::vector<std::pair<DdgNodeId, const ddg::Operand*>>> usesOf(
      static_cast<std::size_t>(ddg.numNodes()));
  for (std::int32_t v = 0; v < ddg.numNodes(); ++v) {
    const auto& node = ddg.node(DdgNodeId(v));
    if (!ddg::isInstruction(node.op)) continue;
    for (const auto& operand : node.operands) {
      if (!ddg::isInstruction(ddg.node(operand.src).op)) continue;
      usesOf[operand.src.index()].emplace_back(DdgNodeId(v), &operand);
    }
  }

  for (int ii = std::max(1, startIi); ii <= kMaxIi; ++ii) {
    ++result.attemptedIis;
    ReservationTable table(ii, model.config().dmaSlots, model.totalCns());
    std::vector<int> cycle(static_cast<std::size_t>(ddg.numNodes()), -1);
    std::vector<int> lastTried(static_cast<std::size_t>(ddg.numNodes()), -1);

    // Worklist in priority order; evictions re-insert.
    std::vector<DdgNodeId> worklist(priority.rbegin(), priority.rend());
    std::int64_t budget =
        static_cast<std::int64_t>(ops.size()) * kBudgetFactor;
    bool failed = false;

    while (!worklist.empty()) {
      if (budget-- <= 0) {
        failed = true;
        break;
      }
      const DdgNodeId n = worklist.back();
      worklist.pop_back();
      const auto& node = ddg.node(n);
      const CnId cn = mapping.cnOf[n.index()];
      const bool isMem = ddg::isMemoryOp(node.op);

      // Earliest start from scheduled predecessors.
      int est = 0;
      for (const auto& operand : node.operands) {
        if (!ddg::isInstruction(ddg.node(operand.src).op)) continue;
        const int tp = cycle[operand.src.index()];
        if (tp < 0) continue;
        est = std::max(est, tp + edgeLatency(mapping, model, operand.src, n) -
                                ii * operand.distance);
      }
      // Never re-try the same slot forever.
      if (lastTried[n.index()] >= 0) {
        est = std::max(est, lastTried[n.index()] + 1);
      }

      int chosen = -1;
      for (int t = est; t < est + ii; ++t) {
        if (table.fits(t, cn, isMem)) {
          chosen = t;
          break;
        }
      }
      if (chosen < 0) {
        // Force placement at est, evicting the CN's occupant (Rau's
        // eviction step keeps the search moving through tight tables).
        chosen = est;
        for (const DdgNodeId other : ops) {
          if (other == n || cycle[other.index()] < 0) continue;
          if (mapping.cnOf[other.index()] != cn) continue;
          if (((cycle[other.index()] % ii) + ii) % ii ==
              ((chosen % ii) + ii) % ii) {
            table.release(cycle[other.index()], cn,
                          ddg::isMemoryOp(ddg.node(other).op));
            cycle[other.index()] = -1;
            worklist.push_back(other);
            ++result.evictions;
          }
        }
        if (!table.fits(chosen, cn, isMem)) {
          // DMA still saturated at this slot: evict one memory op there.
          for (const DdgNodeId other : ops) {
            if (cycle[other.index()] < 0) continue;
            if (!ddg::isMemoryOp(ddg.node(other).op)) continue;
            if (((cycle[other.index()] % ii) + ii) % ii ==
                ((chosen % ii) + ii) % ii) {
              table.release(cycle[other.index()],
                            mapping.cnOf[other.index()], true);
              cycle[other.index()] = -1;
              worklist.push_back(other);
              ++result.evictions;
              break;
            }
          }
        }
        if (!table.fits(chosen, cn, isMem)) {
          failed = true;
          break;
        }
      }
      table.reserve(chosen, cn, isMem);
      cycle[n.index()] = chosen;
      lastTried[n.index()] = chosen;

      // Evict scheduled consumers whose dependence is now violated.
      for (const auto& [consumer, operand] : usesOf[n.index()]) {
        const int tc = cycle[consumer.index()];
        if (tc < 0) continue;
        if (tc < chosen + edgeLatency(mapping, model, n, consumer) -
                     ii * operand->distance) {
          table.release(tc, mapping.cnOf[consumer.index()],
                        ddg::isMemoryOp(ddg.node(consumer).op));
          cycle[consumer.index()] = -1;
          worklist.push_back(consumer);
          ++result.evictions;
        }
      }
    }

    if (failed) continue;
    result.ok = true;
    result.schedule.ii = ii;
    result.schedule.cycleOf = std::move(cycle);
    int length = 0;
    for (const DdgNodeId n : ops) {
      length = std::max(length, result.schedule.cycleOf[n.index()] + 1);
    }
    result.schedule.length = length;
    return result;
  }
  result.failureReason = strCat("no schedule up to II ", kMaxIi);
  return result;
}

std::vector<std::string> validateSchedule(const mapper::FinalMapping& mapping,
                                          const machine::DspFabricModel& model,
                                          const Schedule& schedule) {
  const auto& ddg = mapping.finalDdg;
  std::vector<std::string> violations;
  const int ii = schedule.ii;
  if (ii <= 0) return {"non-positive II"};

  std::map<std::pair<int, std::int32_t>, int> cnSlotUse;
  std::map<int, int> dmaUse;
  for (std::int32_t v = 0; v < ddg.numNodes(); ++v) {
    const auto& node = ddg.node(DdgNodeId(v));
    if (!ddg::isInstruction(node.op)) continue;
    const int t = schedule.cycleOf[static_cast<std::size_t>(v)];
    if (t < 0) {
      violations.push_back(strCat("op ", v, " unscheduled"));
      continue;
    }
    const int slot = ((t % ii) + ii) % ii;
    const CnId cn = mapping.cnOf[static_cast<std::size_t>(v)];
    if (++cnSlotUse[{slot, cn.value()}] > 1) {
      violations.push_back(strCat("CN ", cn.value(),
                                  " double-issues at slot ", slot));
    }
    if (ddg::isMemoryOp(node.op) &&
        ++dmaUse[slot] > model.config().dmaSlots) {
      violations.push_back(strCat("DMA over-subscribed at slot ", slot));
    }
    for (const auto& operand : node.operands) {
      if (!ddg::isInstruction(ddg.node(operand.src).op)) continue;
      const int tp = schedule.cycleOf[operand.src.index()];
      const int lat = edgeLatency(mapping, model, operand.src, DdgNodeId(v));
      if (t < tp + lat - ii * operand.distance) {
        violations.push_back(
            strCat("dependence ", operand.src.value(), " -> ", v,
                   " violated: ", t, " < ", tp, " + ", lat, " - ", ii, "*",
                   operand.distance));
      }
    }
  }
  return violations;
}

}  // namespace hca::sched
