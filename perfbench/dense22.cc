/**
 * @file
 * dense22: ExecutionEngine::run on 22-qubit qft, hchain, qaoa and rqc
 * in three legs with raw storage - qgpu on one device holding 1/16 of
 * the state (the streaming executor), qgpu on four devices holding
 * the whole state between them (the sharded executor), and baseline
 * on one device. The 64 MiB state is larger than the host's L2 but
 * fits its L3, so the kernels and the thread pool do most of the
 * work and planning does little.
 */

#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "bench.hh"
#include "checks.hh"
#include "circuits/circuits.hh"
#include "common/parallel.hh"
#include "harness/experiment.hh"

using namespace qgpu;

namespace perfbench
{
namespace
{

struct Leg
{
    const char *name;
    const char *engine;
    double deviceFraction;
    int devices;
};

const std::array<Leg, 3> kLegs = {{
    {"qgpu-1dev", "qgpu", 1.0 / 16.0, 1},
    {"qgpu-4dev", "qgpu", 1.0, 4},
    {"baseline-1dev", "baseline", 1.0 / 16.0, 1},
}};

const std::array<const char *, 4> kFamilies = {"qft", "hchain", "qaoa",
                                               "rqc"};

RunResult
runLeg(const Leg &leg, const Circuit &circuit)
{
    Machine machine =
        machines::makeScaled(circuit.numQubits(), machines::p100(),
                             leg.deviceFraction, leg.devices);
    return harness::makeEngine(leg.engine, machine, idealOptions())
        ->run(circuit);
}

class Dense22 : public Workload
{
  public:
    explicit Dense22(const Options &options)
        : options_(options), qubits_(options.tiny ? 12 : 22)
    {
    }

    void
    setup(Report &report) override
    {
        // This workload is about the data-parallel kernels and the
        // thread pool, so its loops fan out over every host thread.
        setSimThreads(kThreads);
        const double start = now();
        circuits_.clear();
        for (const char *family : kFamilies)
            circuits_.push_back(
                makeCircuit(family, qubits_, options_.seed));
        buildS_ = now() - start;

        for (const char *family : kFamilies) {
            const Circuit small =
                makeCircuit(family, kReferenceQubits, options_.seed);
            const StateVector reference = simulateReference(small);
            for (const Leg &leg : kLegs)
                checkReference(report, reference, runLeg(leg, small),
                               std::string(family) + "/" + leg.name);
        }
    }

    /** Op f * 3 + l runs family f on leg l. */
    std::size_t
    opCount() const override
    {
        return kFamilies.size() * kLegs.size();
    }

    void
    runOp(std::size_t i, Report &report, Tracer &tracer,
          Measured &out) override
    {
        const std::size_t f = i / kLegs.size(), l = i % kLegs.size();
        const std::string what =
            std::string(kFamilies[f]) + "/" + kLegs[l].name;
        RunResult r;
        Op op;
        {
            Scope span(tracer, "engine.run", i);
            r = runLeg(kLegs[l], circuits_[f]);
            op.wall = span.seconds();
        }
        if (report.tamper())
            r.state[0] += Amp(0.5, 0.0);
        std::uint64_t &fp = fingerprints_[f][l];
        bool ok = checkIdeal(report, r, what, fp);
        if (l == 1)
            ok = report.op(fp == fingerprints_[f][0],
                           what + " matches qgpu-1dev") &&
                 ok;
        op.work = ampGates(circuits_[f]);
        op.shots = 1.0;
        op.vtime = r.totalTime;
        out.ops.push_back(op);
        if (stats_.size() == i) // first pass
            stats_.push_back(r.stats);
    }

    void
    layers(Report &report, Tracer &tracer,
           const std::vector<Op> &pass_ops) override
    {
        LayerTotals totals;
        double driver = 0.0;
        for (std::size_t f = 0; f < circuits_.size(); ++f) {
            // The replay stands in for the qgpu-1dev op of this family.
            const std::uint64_t op = f * kLegs.size();
            StateVector replayed{1};
            driver += pass_ops[op].wall -
                      replayPlan(tracer, circuits_[f], op, totals,
                                 replayed);
            report.op(fingerprint(replayed) == fingerprints_[f][0],
                      std::string(kFamilies[f]) +
                          " layer replay matches the run");
            report.op(probeData(tracer, replayed, op,
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
    std::array<std::array<std::uint64_t, kLegs.size()>, kFamilies.size()>
        fingerprints_{};
    /** Stats of the first pass, in op order. */
    std::vector<StatSet> stats_;
};

} // namespace

std::unique_ptr<Workload>
makeDense22(const Options &options)
{
    return std::make_unique<Dense22>(options);
}

} // namespace perfbench
