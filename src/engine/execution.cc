#include "engine/execution.hh"

#include <algorithm>
#include <cstdlib>

#include "common/bits.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "fault/integrity.hh"
#include "statevec/kernel_dispatch.hh"

namespace qgpu
{

RunState::RunState(const ExecOptions &options, int num_qubits,
                   int chunk_bits)
    : injector(FaultSpec::resolve(options.faultSpec), options.faultSeed),
      state(num_qubits, chunk_bits,
            StorageConfig{options.storage, options.workingSetChunks,
                          options.spillDir, &injector,
                          options.transferRetries})
{
    if (options.precision != Precision::f64)
        state.setPrecision(options.precision, options.adaptiveThreshold);
}

void
RunState::reset(const ExecOptions &options)
{
    injector = FaultInjector(FaultSpec::resolve(options.faultSpec),
                             options.faultSeed);
    state.reset();
}

bool
ExecOptions::defaultFastMath()
{
    static const bool enabled = [] {
        const char *v = std::getenv("QGPU_FAST_MATH");
        return v != nullptr && *v != '\0' &&
               std::string_view{v} != "0";
    }();
    return enabled;
}

ExecutionEngine::ExecutionEngine(Machine &machine, ExecOptions options)
    : machine_(machine), options_(std::move(options))
{
}

RunResult
ExecutionEngine::run(const Circuit &circuit)
{
    machine_.reset();

    const WallClock wall;
    RunResult result;
    result.engine = name();
    if (options_.recordTrace || options_.recordTimeline)
        result.trace.enable();

    // The kernel tier is a process-global read by makeKernelSpec;
    // scope the opt-in to this run so interleaved exact runs (e.g.
    // the differential reference) are unaffected. Engaged only when
    // the tier actually changes: concurrent runs that already match
    // the ambient tier (the service layer's steady state) must not
    // fight over the global. Runs without the opt-in inherit the
    // ambient tier, as before.
    std::optional<ScopedKernelTier> tier;
    if (options_.fastMath && kernelTier() != KernelTier::Fast)
        tier.emplace(KernelTier::Fast);

    StateVector state{circuit.numQubits()};
    try {
        state = execute(circuit, result);
    } catch (const SimException &e) {
        // A fault-recovery policy was exhausted. Surface the failure
        // structurally — never a crash, never a silently corrupt
        // state (the |0...0> placeholder plus `error` is the
        // contract).
        result.error = e.error();
        result.stats.add(intkeys::simErrors, 1.0);
    }
    result.wallSeconds = wall.seconds();

    if (options_.recordTimeline) {
        result.timeline.enable();
        result.timeline.addTrace(result.trace);
    }

    // Collect resource busy times common to every engine.
    auto &stats = result.stats;
    stats.set(statkeys::hostCompute,
              machine_.host().compute().busyTime());
    double h2d = 0.0, d2h = 0.0, dev = 0.0, peer = 0.0;
    VTime horizon = machine_.host().compute().freeAt();
    const bool multi = machine_.numDevices() > 1;
    for (int d = 0; d < machine_.numDevices(); ++d) {
        const auto &device = machine_.device(d);
        h2d += device.h2dEngine().busyTime();
        d2h += device.d2hEngine().busyTime();
        dev += device.compute().busyTime();
        peer += device.peerEngine().busyTime();
        horizon = std::max({horizon, device.compute().freeAt(),
                            device.h2dEngine().freeAt(),
                            device.d2hEngine().freeAt(),
                            device.peerEngine().freeAt()});
        if (multi) {
            // Per-device busy breakdown: with one device these rows
            // duplicate the aggregates, so they are multi-device only.
            const std::string prefix =
                "device." + std::to_string(d) + ".";
            stats.set(prefix + "busy", device.compute().busyTime());
            stats.set(prefix + "h2d", device.h2dEngine().busyTime());
            stats.set(prefix + "d2h", device.d2hEngine().busyTime());
            stats.set(prefix + "peer",
                      device.peerEngine().busyTime());
        }
    }
    stats.set(statkeys::h2d, h2d);
    stats.set(statkeys::d2h, d2h);
    if (peer > 0.0)
        stats.set(statkeys::peerTime, peer);
    // Exposed transfer period: bidirectional overlap hides the
    // shorter direction behind the longer one.
    stats.set(statkeys::transfer,
              options_.overlap ? std::max(h2d, d2h) : h2d + d2h);
    // Device compute excluding codec work.
    stats.set(statkeys::deviceCompute,
              dev - stats.get(statkeys::compressTime) -
                  stats.get(statkeys::decompressTime));

    result.totalTime = horizon;
    stats.set(statkeys::totalTime, result.totalTime);

    // Mirror the per-run integrity and storage counters into the
    // process-wide registry so long-lived processes can watch
    // corruption/recovery and working-set behavior without keeping
    // RunResults alive.
    auto &registry = MetricsRegistry::global();
    for (const auto &name : stats.names()) {
        if ((name.rfind("integrity.", 0) == 0 ||
             name.rfind("storage.", 0) == 0) &&
            stats.get(name) != 0.0) {
            registry.add(name, stats.get(name));
        }
    }

    if (options_.keepState)
        result.state = std::move(state);
    return result;
}

int
ExecutionEngine::baseChunkBits(int num_qubits) const
{
    const int chunk_index_bits = std::min<int>(
        num_qubits,
        bits::log2Exact(std::bit_ceil(options_.targetChunks)));
    return num_qubits - chunk_index_bits;
}

} // namespace qgpu
