#include "checks.hh"

#include <algorithm>
#include <cmath>

#include "harness/experiment.hh"

using namespace qgpu;

namespace perfbench
{

ExecOptions
idealOptions()
{
    ExecOptions o = harness::benchOptions();
    o.keepState = true;
    o.faultSpec = "none";
    return o;
}

bool
checkReference(Report &report, const StateVector &reference,
               const RunResult &run, const std::string &what)
{
    return report.op(run.ok() &&
                         run.state.numQubits() == reference.numQubits() &&
                         run.state.maxAbsDiff(reference) <= kTolerance,
                     what + " matches simulateReference");
}

bool
checkIdeal(Report &report, const RunResult &run,
           const std::string &what, std::uint64_t &fp)
{
    if (!report.op(run.ok(), what + " returned " +
                                 (run.ok() ? "ok"
                                           : run.error->toString())))
        return false;
    if (!report.op(std::abs(run.state.norm() - 1.0) <= kTolerance,
                   what + " norm is 1"))
        return false;
    const std::uint64_t got = fingerprint(run.state);
    if (fp == 0)
        fp = got;
    return report.op(got == fp, what + " fingerprint repeats");
}

void
emitRunCounters(Report &report, const std::vector<StatSet> &stats)
{
    const auto sum = [&stats](const char *key) {
        double total = 0.0;
        for (const StatSet &s : stats)
            total += s.get(key);
        return total;
    };
    const auto ratio = [](double a, double b) {
        return b > 0.0 ? a / b : 0.0;
    };
    const double pruned = sum(statkeys::chunksPruned);
    report.set("prune.pruned_frac",
               ratio(pruned, pruned + sum(statkeys::chunksProcessed)),
               "ratio");
    report.set("sim.h2d_bytes", sum(statkeys::bytesH2d), "B");
    report.set("sim.d2h_bytes", sum(statkeys::bytesD2h), "B");
    report.set("sim.h2d_s", sum(statkeys::h2d), "model_s");
    report.set("sim.d2h_s", sum(statkeys::d2h), "model_s");
    report.set("sim.device_compute_s", sum(statkeys::deviceCompute),
               "model_s");
    report.set("sched.exchange_bytes", sum(statkeys::exchangeBytes), "B");
    report.set("sched.exchange_phases", sum(statkeys::exchangePhases),
               "count");

    const double evictions = sum(statkeys::storageEvictions);
    if (evictions == 0.0)
        return; // raw storage: the residency layer is not in use
    const double hits = sum(statkeys::storageHits);
    const double misses = sum(statkeys::storageMisses);
    const double zero_fills = sum(statkeys::storageZeroFills);
    const double accesses = hits + misses + zero_fills;
    double peak = 0.0;
    for (const StatSet &s : stats)
        peak = std::max(peak, s.get(statkeys::storagePeakBytes));
    report.set("statevec.storage_evictions", evictions, "count");
    report.set("statevec.storage_hit_frac", ratio(hits, accesses),
               "ratio");
    report.set("statevec.storage_zero_fill_frac",
               ratio(zero_fills, accesses), "ratio");
    report.set("statevec.storage_peak_host_mb", peak / (1 << 20), "MiB");
}

} // namespace perfbench
