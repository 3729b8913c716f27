#include "engine/batched.hh"

#include <utility>

#include "common/bits.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/rng.hh"
#include "fault/integrity.hh"
#include "qc/fusion.hh"
#include "statevec/apply.hh"
#include "statevec/kernel_dispatch.hh"
#include "statevec/measure.hh"

namespace qgpu
{

namespace
{

// TRUE for chunks provably all-zero under the union mask: some set
// bit of the chunk's global-index prefix is not a live qubit
// (InvolvementMask::chunkIsLive over a plain bit mask).
ZeroPredicate
deadPredicate(bool prune, std::uint64_t live_bits, int chunk_bits)
{
    if (!prune)
        return {};
    return [live_bits, chunk_bits](Index c) {
        return ((c << chunk_bits) & ~live_bits) != 0;
    };
}

// Restores result-affecting options around the PerShot inner runs:
// reordering/fusion already happened once at plan time (error gates
// are attached to the executed order, so re-running the passes over
// the expanded circuit could migrate them), and the inner run must
// keep its state for outcome sampling.
class ScopedBatchOptions
{
  public:
    ScopedBatchOptions(ExecOptions &options) : options_(options), saved_(options)
    {
        options_.reorder = ReorderKind::None;
        options_.fuseWidth = 0;
        options_.keepState = true;
    }
    ~ScopedBatchOptions() { options_ = saved_; }

  private:
    ExecOptions &options_;
    ExecOptions saved_;
};

} // namespace

ShotPlan
buildShotPlan(const Circuit &circuit, const ExecOptions &options,
              int chunk_bits, const noise::NoiseModel &model)
{
    ShotPlan plan;
    plan.ordered = reorderCircuit(circuit, options.reorder);
    if (options.fuseWidth > 0)
        plan.ordered = fuseGates(plan.ordered, options.fuseWidth);
    plan.chunkBits = chunk_bits;
    plan.prune = options.prune;

    const std::span<const Gate> gates(plan.ordered.gates());
    plan.noiseBits.resize(gates.size());
    for (std::size_t i = 0; i < gates.size(); ++i)
        plan.noiseBits[i] = model.touchableBits(gates[i]);

    const int n = plan.ordered.numQubits();
    InvolvementMask umask(n, options.involvement);
    std::size_t at = 0;
    while (at < gates.size()) {
        const Sweep sw =
            nextSweep(gates, at, chunk_bits,
                      plan.prune ? &umask : nullptr, plan.noiseBits);
        PlanSweep ps;
        ps.begin = sw.begin;
        ps.end = sw.end;
        ps.globalBits = sw.globalBits;
        if (plan.prune) {
            ps.liveBits = umask.bits();
            for (std::size_t i = sw.begin; i < sw.end; ++i) {
                umask.involve(gates[i]);
                // Conservative union arming: every qubit any shot's
                // sampled error at this site could touch
                // non-diagonally goes live for the REST of the plan.
                std::uint64_t noise = plan.noiseBits[i];
                if ((noise & ~umask.bits()) != 0)
                    ++plan.armedSites;
                while (noise != 0) {
                    umask.involve(std::countr_zero(noise));
                    noise &= noise - 1;
                }
            }
            ps.postBits = umask.bits();
        }
        plan.sweeps.push_back(std::move(ps));
        at = sw.end;
    }
    return plan;
}

BatchResult
ExecutionEngine::runBatched(const Circuit &circuit)
{
    return runBatched(circuit, options_.shots);
}

BatchResult
ExecutionEngine::runBatched(const Circuit &circuit,
                            std::uint64_t shots,
                            std::span<const std::uint64_t> shot_seeds)
{
    const WallClock wall;
    BatchResult br;
    br.engine = name();
    br.shots = shots;
    if (!shot_seeds.empty() && shot_seeds.size() != shots)
        QGPU_FATAL("runBatched: ", shot_seeds.size(),
                   " shot seeds for ", shots, " shots");

    const noise::NoiseModel model =
        noise::NoiseModel::resolve(options_.noiseSpec);
    const int n = circuit.numQubits();
    auto seed_for = [&](std::uint64_t i) {
        return shot_seeds.empty()
                   ? splitSeed(options_.shotSeed, i)
                   : shot_seeds[i];
    };

    // Sample one shot's outcome from its final state, apply readout
    // error, and tally it.
    const auto record = [&](const auto &state, Rng &rng) {
        Index outcome = sampleOutcome(state, rng);
        if (model.readoutArmed()) {
            const Index flips = model.sampleReadoutFlips(n, rng);
            br.stats.add(statkeys::noiseReadoutFlips,
                         static_cast<double>(bits::popcount(flips)));
            outcome ^= flips;
        }
        br.outcomes.push_back(outcome);
        ++br.counts[outcome];
        br.stats.add(statkeys::shotsTotal, 1.0);
    };

    if (options_.batchMode == BatchMode::PerShot) {
        // Apply the order-changing passes once so sampled errors
        // attach to the same executed sequence Shared mode sees —
        // the two modes are bit-identical per shot.
        Circuit ordered = reorderCircuit(circuit, options_.reorder);
        if (options_.fuseWidth > 0)
            ordered = fuseGates(ordered, options_.fuseWidth);
        const std::span<const Gate> gates(ordered.gates());

        for (std::uint64_t s = 0; s < shots && br.ok(); ++s) {
            Rng rng(seed_for(s));
            const auto events = model.sample(gates, rng);
            const Circuit expanded =
                noise::expandCircuit(ordered, events);
            RunResult rr;
            {
                ScopedBatchOptions guard(options_);
                rr = run(expanded);
            }
            if (!rr.ok()) {
                br.error = rr.error;
                break;
            }
            br.stats.add(statkeys::noiseEvents,
                         static_cast<double>(events.size()));
            record(rr.state, rng);
            if (options_.keepShotStates)
                br.states.push_back(std::move(rr.state));
        }
    } else {
        const WallClock plan_wall;
        const ShotPlan plan = buildShotPlan(
            circuit, options_, baseChunkBits(n), model);
        br.scheduleSeconds = plan_wall.seconds();
        br.stats.add(statkeys::shotsPlans, 1.0);
        br.stats.set(statkeys::shotsPlanSweeps,
                     static_cast<double>(plan.sweeps.size()));
        br.stats.set(statkeys::noiseArmedSites,
                     static_cast<double>(plan.armedSites));
        const std::span<const Gate> gates(plan.ordered.gates());

        std::optional<ScopedKernelTier> tier;
        if (options_.fastMath && kernelTier() != KernelTier::Fast)
            tier.emplace(KernelTier::Fast);

        // One state for the batch, reset in place for every shot.
        std::optional<RunState> run_state;
        for (std::uint64_t s = 0; s < shots && br.ok(); ++s) {
            Rng rng(seed_for(s));
            const auto events = model.sample(gates, rng);
            br.stats.add(statkeys::noiseEvents,
                         static_cast<double>(events.size()));
            try {
                if (run_state)
                    run_state->reset(options_);
                else
                    run_state.emplace(options_, n, plan.chunkBits);
                ChunkedStateVector &state = run_state->state;

                std::size_t ev = 0;
                for (const PlanSweep &ps : plan.sweeps) {
                    std::size_t at = ps.begin;
                    while (at < ps.end) {
                        // Replay up to the next error insertion (or
                        // the sweep end); a mid-sweep insertion
                        // splits the replay into sub-spans, all run
                        // with the sweep's signature and predicate.
                        std::size_t stop = ps.end;
                        if (ev < events.size() &&
                            events[ev].gateIndex + 1 < ps.end)
                            stop = events[ev].gateIndex + 1;
                        if (stop < ps.end)
                            br.stats.add(statkeys::shotsSweepSplits,
                                         1.0);
                        applySweepChunked(
                            state, gates.subspan(at, stop - at),
                            ps.globalBits,
                            deadPredicate(plan.prune, ps.liveBits,
                                          plan.chunkBits));
                        br.stats.add(statkeys::shotsSweepReplays,
                                     1.0);
                        // Errors attached at the sub-span's last
                        // gate. Boundary insertions see postBits
                        // (their arming, by construction, is only
                        // ever needed there); mid-sweep insertions
                        // touch already-live qubits.
                        const std::uint64_t live =
                            stop == ps.end ? ps.postBits
                                           : ps.liveBits;
                        while (ev < events.size() &&
                               events[ev].gateIndex == stop - 1) {
                            applyGateChunked(
                                state, events[ev].gate,
                                deadPredicate(plan.prune, live,
                                              plan.chunkBits));
                            ++ev;
                        }
                        at = stop;
                    }
                    state.refreshPrecision();
                }

                record(state, rng);
                if (options_.keepShotStates)
                    br.states.push_back(state.toFlat());
            } catch (const SimException &e) {
                br.error = e.error();
                br.stats.add(intkeys::simErrors, 1.0);
            }
        }
    }

    br.wallSeconds = wall.seconds();

    // Mirror the batch counters into the process-wide registry
    // (ExecutionEngine::run does the same for integrity/storage).
    auto &registry = MetricsRegistry::global();
    for (const auto &key : br.stats.names()) {
        if ((key.rfind("noise.", 0) == 0 ||
             key.rfind("shots.", 0) == 0) &&
            br.stats.get(key) != 0.0) {
            registry.add(key, br.stats.get(key));
        }
    }
    return br;
}

} // namespace qgpu
