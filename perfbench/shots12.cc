/**
 * @file
 * shots12: runBatched in shared mode, 1024 seeded shots each on
 * 12-qubit hchain, qaoa and qft under single-qubit Pauli, damping
 * and readout noise. The 64 KiB state fits in L2 and the engines'
 * ~256-chunk geometry gives 16-amplitude chunks, so per-shot
 * overhead (pool dispatch, noise sampling, plan replay, measurement)
 * does most of the work - the mirror image of dense22.
 *
 * A family's 1024-shot batch is delivered in kCalls runBatched calls
 * of consecutive shots, each given its shots' own seeds
 * (splitSeed(base, i) for shot i), so the calls reproduce the
 * 1024-shot batch shot for shot. A whole-batch call takes seconds,
 * so quarter-batch calls give each timed phase four times as many
 * samples for the medians.
 *
 * Shared-mode batches report no modeled device time, so each family
 * also gets one ideal run per pass: it anchors virtual_s and the
 * norm check, and is not a primary op.
 */

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "bench.hh"
#include "checks.hh"
#include "circuits/circuits.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "engine/batched.hh"
#include "harness/experiment.hh"
#include "noise/model.hh"
#include "qc/canonical.hh"
#include "reorder/reorder.hh"

using namespace qgpu;

namespace perfbench
{
namespace
{

const std::array<const char *, 3> kFamilies = {"hchain", "qaoa", "qft"};

/** runBatched calls that deliver one family's batch. */
constexpr std::size_t kCalls = 4;

/** Ops per family: the ideal run, then the batch's calls. */
constexpr std::size_t kOpsPerFamily = 1 + kCalls;

/** Shots of the set-up batch whose outcomes every timed batch must
 *  reproduce as its prefix (shot i is seeded independently). */
constexpr std::uint64_t kPrefixShots = 16;

std::uint64_t
outcomeHash(const std::vector<Index> &outcomes)
{
    HashStream h;
    for (const Index o : outcomes)
        h.u64(o);
    return h.digest();
}

class Shots12 : public Workload
{
  public:
    explicit Shots12(const Options &options)
        : options_(options), qubits_(options.tiny ? 8 : 12),
          shots_(options.tiny ? 64 : 1024),
          shotSeed_(deriveSeed(options.seed, "shots"))
    {
    }

    void
    setup(Report &report) override
    {
        const double start = now();
        circuits_.clear();
        for (const char *family : kFamilies)
            circuits_.push_back(
                makeCircuit(family, qubits_, options_.seed));
        buildS_ = now() - start;

        for (std::size_t f = 0; f < circuits_.size(); ++f) {
            const std::string family = kFamilies[f];
            const Circuit small =
                makeCircuit(family, kReferenceQubits, options_.seed);
            checkReference(report, simulateReference(small),
                           runIdeal(small), family + "/ideal");
            // Outcomes must not depend on the host thread count.
            setSimThreads(kThreads);
            const BatchResult parallel =
                runBatch(circuits_[f], 0, kPrefixShots);
            setSimThreads(1);
            const BatchResult serial =
                runBatch(circuits_[f], 0, kPrefixShots);
            report.op(serial.ok() && parallel.ok() &&
                          serial.outcomes == parallel.outcomes,
                      family + " shot outcomes repeat across threads");
            prefixes_[f] = serial.outcomes;
        }
    }

    /** Op f * kOpsPerFamily is family f's ideal run; the next
     *  kCalls ops are its batch, call by call. */
    std::size_t
    opCount() const override
    {
        return kFamilies.size() * kOpsPerFamily;
    }

    void
    runOp(std::size_t i, Report &report, Tracer &tracer,
          Measured &out) override
    {
        const std::size_t f = i / kOpsPerFamily;
        const std::string family = kFamilies[f];
        if (i % kOpsPerFamily == 0) {
            Op ideal;
            {
                Scope span(tracer, "engine.run", i);
                const RunResult r = runIdeal(circuits_[f]);
                ideal.wall = span.seconds();
                checkIdeal(report, r, family + "/ideal",
                           fingerprints_[f]);
                ideal.vtime = r.totalTime;
            }
            ideal.primary = false;
            out.ops.push_back(ideal);
            return;
        }

        const std::size_t call = i % kOpsPerFamily - 1;
        const std::uint64_t shots = shots_ / kCalls;
        BatchResult b;
        Op op;
        {
            Scope span(tracer, "engine.runBatched", i);
            b = runBatch(circuits_[f], call * shots, shots);
            op.wall = span.seconds();
        }
        if (report.tamper() && !b.outcomes.empty())
            b.outcomes[0] ^= 1;
        const bool prefix_ok =
            b.outcomes.size() == shots &&
            (call > 0 || std::equal(prefixes_[f].begin(),
                                    prefixes_[f].end(),
                                    b.outcomes.begin()));
        std::uint64_t &hash = hashes_[f][call];
        const std::uint64_t got = outcomeHash(b.outcomes);
        if (hash == 0)
            hash = got;
        report.op(b.ok() && prefix_ok && got == hash,
                  family + " shot outcomes repeat for the seed");
        op.work = ampGates(circuits_[f]) * static_cast<double>(shots);
        op.shots = static_cast<double>(b.outcomes.size());
        out.ops.push_back(op);
        if (stats_.size() < kFamilies.size() * kCalls) // first pass
            stats_.push_back(b.stats);
    }

    void
    layers(Report &report, Tracer &tracer,
           const std::vector<Op> &) override
    {
        LayerTotals totals;
        const noise::NoiseModel model = noise::NoiseModel::parse(kNoiseSpec);
        for (std::size_t f = 0; f < circuits_.size(); ++f) {
            const std::uint64_t op = f * kOpsPerFamily + 1;
            StateVector replayed{1};
            replayPlan(tracer, circuits_[f], op, totals, replayed);
            report.op(fingerprint(replayed) == fingerprints_[f],
                      std::string(kFamilies[f]) +
                          " layer replay matches the run");
            report.op(probeData(tracer, replayed, op,
                                deriveSeed(options_.seed, "measure"),
                                totals),
                      std::string(kFamilies[f]) + " codec round trip");
            // The batch's own draw path: one sample() per shot over
            // the executed (reordered) gate order.
            const Circuit ordered = reorderCircuit(
                circuits_[f], ReorderKind::ForwardLooking);
            Scope span(tracer, "noise.sample", op);
            for (std::uint64_t s = 0; s < shots_; ++s) {
                Rng rng(splitSeed(shotSeed_, s));
                model.sample(ordered.gates(), rng);
            }
        }
        emitLayers(report, tracer, totals);
        report.set("circuits.build_s", buildS_, "s");
        report.set("noise.sample_s", tracer.selfSeconds("noise.sample"),
                   "s");
        double events = 0.0, replays = 0.0, splits = 0.0;
        for (const StatSet &s : stats_) {
            events += s.get(statkeys::noiseEvents);
            replays += s.get(statkeys::shotsSweepReplays);
            splits += s.get(statkeys::shotsSweepSplits);
        }
        report.set("noise.events", events, "count");
        report.set("engine.sweep_replays", replays, "count");
        report.set("engine.sweep_splits", splits, "count");

        serviceLayers(report, tracer, options_.seed, options_.tiny);
    }

  private:
    RunResult
    runIdeal(const Circuit &circuit) const
    {
        Machine machine = harness::benchMachine(circuit.numQubits());
        return harness::makeEngine("qgpu", machine, idealOptions())
            ->run(circuit);
    }

    /** Shots @p first .. @p first + @p count - 1 of the batch, shot i
     *  seeded with splitSeed(base, i) as in one whole-batch call. */
    BatchResult
    runBatch(const Circuit &circuit, std::uint64_t first,
             std::uint64_t count) const
    {
        std::vector<std::uint64_t> seeds(count);
        for (std::uint64_t s = 0; s < count; ++s)
            seeds[s] = splitSeed(shotSeed_, first + s);
        ExecOptions o = idealOptions();
        o.keepState = false;
        o.noiseSpec = kNoiseSpec;
        o.batchMode = BatchMode::Shared;
        Machine machine = harness::benchMachine(circuit.numQubits());
        return harness::makeEngine("qgpu", machine, o)
            ->runBatched(circuit, count, seeds);
    }

    Options options_;
    int qubits_;
    std::uint64_t shots_;
    std::uint64_t shotSeed_;
    std::vector<Circuit> circuits_;
    double buildS_ = 0.0;
    std::array<std::vector<Index>, kFamilies.size()> prefixes_;
    std::array<std::uint64_t, kFamilies.size()> fingerprints_{};
    std::array<std::array<std::uint64_t, kCalls>, kFamilies.size()>
        hashes_{};
    std::vector<StatSet> stats_;
};

} // namespace

std::unique_ptr<Workload>
makeShots12(const Options &options)
{
    return std::make_unique<Shots12>(options);
}

} // namespace perfbench
