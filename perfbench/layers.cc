/**
 * @file
 * Per-layer replays for the traced run. Each library call below is
 * wrapped in a span named after the layer, so its self time is that
 * layer's wall time on the workload's own input.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "bench.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "compress/gfc.hh"
#include "fault/checksum.hh"
#include "prune/involvement.hh"
#include "qc/fusion.hh"
#include "reorder/reorder.hh"
#include "sched/sweep.hh"
#include "statevec/apply.hh"
#include "statevec/chunked.hh"
#include "statevec/measure.hh"

using namespace qgpu;

namespace perfbench
{

namespace
{

std::string
kernelSpan(int threads)
{
    return "statevec.kernel." + std::to_string(threads) + "t";
}

} // namespace

int
engineChunkBits(int num_qubits)
{
    // ExecOptions::targetChunks defaults to 256 chunks.
    return num_qubits - std::min(num_qubits, 8);
}

PoolProbe
probePool(int calls)
{
    const auto body = [](std::uint64_t, std::uint64_t) {};
    parallelFor(0, kThreads, kThreads, body, 1); // pool warm-up
    // Reading /proc/self/io costs read syscalls of its own; subtract
    // that fixed cost, measured back to back.
    const double idle0 = readSyscalls();
    const double idle1 = readSyscalls();
    const double before = readSyscalls();
    const double start = now();
    for (int i = 0; i < calls; ++i)
        parallelFor(0, kThreads, kThreads, body, 1);
    const double elapsed = now() - start;
    const double after = readSyscalls();
    PoolProbe probe;
    probe.dispatchUs = 1e6 * elapsed / calls;
    probe.syscrPerCall =
        before < 0.0 ? 0.0
                     : (after - before - (idle1 - idle0)) / calls;
    return probe;
}

double
replayPlan(Tracer &tracer, const Circuit &circuit, std::uint64_t op,
           LayerTotals &totals, StateVector &final_state)
{
    const int n = circuit.numQubits();
    const int chunk_bits = engineChunkBits(n);

    // Seconds of the layers a run executes: reorder, schedule and
    // the kernels at the run's thread count.
    double run_layers = 0.0;
    Circuit ordered{1};
    {
        Scope s(tracer, "reorder", op);
        ordered = reorderCircuit(circuit, ReorderKind::ForwardLooking);
        run_layers += s.seconds();
    }
    {
        Scope s(tracer, "qc.fuse", op);
        const Circuit fused = fuseGates(ordered, 4);
        (void)fused;
    }
    std::vector<Sweep> sweeps;
    {
        Scope s(tracer, "sched.sweep", op);
        InvolvementMask mask(n);
        sweeps = scheduleSweeps(ordered.gates(), chunk_bits, &mask);
        run_layers += s.seconds();
    }
    totals.sweeps += static_cast<double>(sweeps.size());
    totals.gates += static_cast<double>(ordered.numGates());

    const std::span<const Gate> gates{ordered.gates()};
    const int ambient_threads = simThreads();
    for (const int threads : {1, kThreads}) {
        setSimThreads(threads);
        ChunkedStateVector state(n, chunk_bits);
        InvolvementMask mask(n);
        const ZeroPredicate dead = [&mask, chunk_bits](Index c) {
            return !mask.chunkIsLive(c, chunk_bits);
        };
        double live_amps = 0.0;
        for (const Sweep &sw : sweeps) {
            {
                Scope s(tracer, kernelSpan(threads), op);
                applySweepChunked(state,
                                  gates.subspan(sw.begin, sw.size()),
                                  sw.globalBits, dead);
                if (threads == kThreads)
                    run_layers += s.seconds();
            }
            if (threads == kThreads) {
                Index live = 0;
                for (Index c = 0; c < state.numChunks(); ++c)
                    live += dead(c) ? 0 : 1;
                live_amps +=
                    std::ldexp(static_cast<double>(live), chunk_bits);
            }
            for (std::size_t g = sw.begin; g < sw.end; ++g)
                mask.involve(gates[g]);
        }
        if (threads == kThreads) {
            // Computed, not measured: each sweep reads and writes
            // every live amplitude once.
            totals.kernelBytes += 2.0 * sizeof(Amp) * live_amps;
            final_state = state.toFlat();
        }
    }
    setSimThreads(ambient_threads);
    totals.kernelWork += ampGates(ordered);
    return run_layers;
}

bool
probeData(Tracer &tracer, const StateVector &state, std::uint64_t op,
          std::uint64_t seed, LayerTotals &totals)
{
    const int n = state.numQubits();
    const Index chunk = Index{1} << engineChunkBits(n);
    const Amp *amps = state.amplitudes().data();
    const double bytes =
        static_cast<double>(state.size()) * sizeof(Amp);

    // Measurement: enough draws for a steady per-call time.
    const int draws = std::max(8, static_cast<int>(
                                      (1 << 20) >> std::min(n, 20)));
    Rng rng(seed);
    {
        Scope s(tracer, "statevec.measure", op);
        Index sink = 0;
        for (int i = 0; i < draws; ++i)
            sink ^= sampleOutcome(state, rng);
        (void)sink;
    }
    totals.measureCalls += draws;

    const GfcCodec codec;
    std::vector<DoubleRun> runs;
    for (Index c = 0; c < state.size(); c += chunk)
        runs.push_back({reinterpret_cast<const double *>(amps + c),
                        2 * chunk});
    std::vector<CompressedBlock> blocks;
    {
        Scope s(tracer, "compress.encode", op);
        blocks = compressBatch(codec, runs);
    }
    std::vector<Amp> decoded(state.size());
    std::vector<std::pair<const CompressedBlock *, double *>> items;
    for (std::size_t i = 0; i < blocks.size(); ++i)
        items.emplace_back(
            &blocks[i],
            reinterpret_cast<double *>(decoded.data() + i * chunk));
    {
        Scope s(tracer, "compress.decode", op);
        decompressBatch(codec, items);
    }
    for (const CompressedBlock &b : blocks)
        totals.codedBytes += static_cast<double>(b.compressedBytes());
    totals.rawBytes += bytes;

    std::uint64_t sum = 0;
    {
        Scope s(tracer, "fault.checksum", op);
        sum = checksumAmps(state.amplitudes());
    }
    totals.checksumBytes += bytes;

    return sum == checksumAmps(decoded);
}

void
emitLayers(Report &report, const Tracer &tracer, const LayerTotals &t)
{
    const auto self = [&tracer](const std::string &name) {
        return tracer.selfSeconds(name);
    };
    const double k1 = self(kernelSpan(1));
    const double k4 = self(kernelSpan(kThreads));
    const auto ratio = [](double a, double b) {
        return b > 0.0 ? a / b : 0.0;
    };
    report.set("reorder.s", self("reorder"), "s");
    report.set("qc.fuse_s", self("qc.fuse"), "s");
    report.set("sched.sweep_s", self("sched.sweep"), "s");
    report.set("sched.sweeps", t.sweeps, "count");
    report.set("sched.gates_per_sweep", ratio(t.gates, t.sweeps),
               "gates");
    report.set("statevec.kernel_s_1t", k1, "s");
    report.set("statevec.kernel_s_4t", k4, "s");
    report.set("statevec.kernel_scaling", ratio(k1, k4), "x");
    report.set("statevec.kernel_gamps",
               ratio(t.kernelWork, k4) * 1e-9, "Gamp/s");
    report.set("statevec.bytes_per_amp_gate",
               ratio(t.kernelBytes, t.kernelWork), "B_computed");
    report.set("statevec.measure_s",
               ratio(self("statevec.measure"), t.measureCalls), "s");
    const auto gbps = [&](double bytes, const char *span) {
        return ratio(bytes, self(span)) * 1e-9;
    };
    report.set("compress.encode_gbps", gbps(t.rawBytes, "compress.encode"),
               "GB/s");
    report.set("compress.decode_gbps", gbps(t.rawBytes, "compress.decode"),
               "GB/s");
    report.set("compress.ratio", ratio(t.rawBytes, t.codedBytes), "x");
    report.set("fault.checksum_gbps",
               gbps(t.checksumBytes, "fault.checksum"), "GB/s");
}

} // namespace perfbench
