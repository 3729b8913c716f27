/**
 * @file
 * storage16: ExecutionEngine::run (qgpu) with compressed chunk
 * storage and a 16-chunk working set on 16-qubit bv, qaoa and
 * hchain, the last two at half their default depth. bv is sparse and exercises zero-chunk elision; qaoa and
 * hchain are dense, so the codec expands them. Evictions encode and
 * checksum, refills decode and verify, so a change that helps one
 * side at the other's expense shows here. Every state must match a
 * raw-storage run of the same circuit bit for bit.
 */

#include <array>
#include <string>
#include <vector>

#include "bench.hh"
#include "checks.hh"
#include "circuits/circuits.hh"
#include "harness/experiment.hh"
#include "prune/involvement.hh"
#include "reorder/reorder.hh"
#include "sched/sweep.hh"

using namespace qgpu;

namespace perfbench
{
namespace
{

const std::array<const char *, 3> kFamilies = {"bv", "qaoa", "hchain"};

/** Working-set bound of the compressed runs, in chunks. */
constexpr Index kWorkingSet = 16;

/**
 * Gate count and the sweeps of the qgpu plan. The seed picks qaoa's
 * graph, and with it the sweep count; each sweep streams the live
 * chunks through the working set, so evictions, and the run's time,
 * follow the sweeps. Matching both keeps the work seed-independent.
 */
std::uint64_t
planSize(const Circuit &circuit)
{
    const int n = circuit.numQubits();
    const Circuit ordered =
        reorderCircuit(circuit, ReorderKind::ForwardLooking);
    InvolvementMask mask(n);
    const std::uint64_t sweeps =
        scheduleSweeps(ordered.gates(), engineChunkBits(n), &mask).size();
    return (static_cast<std::uint64_t>(circuit.numGates()) << 32) | sweeps;
}

/**
 * The family's circuit at a seed derived from @p seed that keeps its
 * @p signature. qaoa and hchain run at half their default depth
 * (2 rounds, 5 layers): a run then takes seconds rather than ten, so
 * a timed phase holds several samples of each for the medians. The
 * working set still turns over once per sweep.
 */
Circuit
makeFamily(const std::string &family, int qubits, std::uint64_t seed,
           const Signature &signature = {})
{
    const Generator generate = [&](std::uint64_t s) {
        if (family == "qaoa")
            return circuits::qaoa(qubits, 2, s);
        if (family == "hchain")
            return circuits::hchain(qubits, 5, s);
        return circuits::makeBenchmark(family, qubits, s);
    };
    return generate(
        matchedSeed(generate, deriveSeed(seed, family), signature));
}

RunResult
runQgpu(const Circuit &circuit, StorageKind storage)
{
    ExecOptions o = idealOptions();
    o.storage = storage;
    o.workingSetChunks = storage == StorageKind::Raw ? 0 : kWorkingSet;
    Machine machine = harness::benchMachine(circuit.numQubits());
    return harness::makeEngine("qgpu", machine, o)->run(circuit);
}

class Storage16 : public Workload
{
  public:
    explicit Storage16(const Options &options)
        : options_(options), qubits_(options.tiny ? 10 : 16)
    {
    }

    void
    setup(Report &report) override
    {
        const double start = now();
        circuits_.clear();
        for (const char *family : kFamilies)
            circuits_.push_back(
                makeFamily(family, qubits_, options_.seed, planSize));
        buildS_ = now() - start;

        for (std::size_t f = 0; f < circuits_.size(); ++f) {
            const std::string family = kFamilies[f];
            const Circuit small =
                makeFamily(family, kReferenceQubits, options_.seed);
            checkReference(report, simulateReference(small),
                           runQgpu(small, StorageKind::Raw),
                           family + "/raw");
            // The raw-storage fingerprint every compressed run of the
            // timed phase must reproduce.
            checkIdeal(report, runQgpu(circuits_[f], StorageKind::Raw),
                       family + "/raw", fingerprints_[f]);
        }
    }

    /** Op f runs family f. */
    std::size_t opCount() const override { return kFamilies.size(); }

    void
    runOp(std::size_t f, Report &report, Tracer &tracer,
          Measured &out) override
    {
        RunResult r;
        Op op;
        {
            Scope span(tracer, "engine.run", f);
            r = runQgpu(circuits_[f], StorageKind::Compressed);
            op.wall = span.seconds();
        }
        if (report.tamper())
            r.state[0] += Amp(0.5, 0.0);
        checkIdeal(report, r,
                   std::string(kFamilies[f]) + "/compressed vs raw",
                   fingerprints_[f]);
        op.work = ampGates(circuits_[f]);
        op.shots = 1.0;
        op.vtime = r.totalTime;
        out.ops.push_back(op);
        if (stats_.size() == f) // first pass
            stats_.push_back(r.stats);
    }

    void
    layers(Report &report, Tracer &tracer,
           const std::vector<Op> &pass_ops) override
    {
        LayerTotals totals;
        double driver = 0.0;
        for (std::size_t f = 0; f < circuits_.size(); ++f) {
            StateVector replayed{1};
            // Storage work has no public entry point of its own, so
            // the residency layer's evict/refill time stays in
            // engine.driver_s here.
            driver += pass_ops[f].wall -
                      replayPlan(tracer, circuits_[f], f, totals,
                                 replayed);
            report.op(fingerprint(replayed) == fingerprints_[f],
                      std::string(kFamilies[f]) +
                          " layer replay matches the run");
            report.op(probeData(tracer, replayed, f,
                                deriveSeed(options_.seed, "measure"),
                                totals),
                      std::string(kFamilies[f]) + " codec round trip");
        }
        emitLayers(report, tracer, totals);
        report.set("engine.driver_s", driver, "s");
        report.set("circuits.build_s", buildS_, "s");
        emitRunCounters(report, stats_);
    }

  private:
    Options options_;
    int qubits_;
    std::vector<Circuit> circuits_;
    double buildS_ = 0.0;
    std::array<std::uint64_t, kFamilies.size()> fingerprints_{};
    std::vector<StatSet> stats_;
};

} // namespace

std::unique_ptr<Workload>
makeStorage16(const Options &options)
{
    return std::make_unique<Storage16>(options);
}

} // namespace perfbench
