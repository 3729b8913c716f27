/**
 * @file
 * The correctness gate's shared checks and the run-counter export
 * used by the run-based workloads. Every check counts as one op in
 * the Report, so a failed check shows in `failed` and ok_frac.
 */

#ifndef QGPU_PERFBENCH_CHECKS_HH
#define QGPU_PERFBENCH_CHECKS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hh"
#include "common/stats.hh"
#include "engine/execution.hh"

namespace perfbench
{

/** Qubits of the set-up copy of each circuit checked against
 *  simulateReference. */
inline constexpr int kReferenceQubits = 14;

/** Tolerance of the norm and reference checks. */
inline constexpr double kTolerance = 1e-10;

/** The bench engine options with the final state kept and fault
 *  injection off (so the ambient environment cannot arm it). */
qgpu::ExecOptions idealOptions();

/** @p run succeeded and matches @p reference within kTolerance. */
bool checkReference(Report &report, const qgpu::StateVector &reference,
                    const qgpu::RunResult &run, const std::string &what);

/**
 * @p run succeeded, its state has norm 1 within kTolerance, and its
 * fingerprint equals @p fingerprint (set on first use, 0 = unset).
 */
bool checkIdeal(Report &report, const qgpu::RunResult &run,
                const std::string &what, std::uint64_t &fingerprint);

/**
 * Per-layer metrics read from the runs' own counters: pruning, the
 * modeled transfers and device time, the exchange plan, and the
 * chunk-storage residency counters, summed over @p stats.
 */
void emitRunCounters(Report &report,
                     const std::vector<qgpu::StatSet> &stats);

} // namespace perfbench

#endif // QGPU_PERFBENCH_CHECKS_HH
