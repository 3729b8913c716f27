#include "statevec/state_vector.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/parallel.hh"
#include "statevec/kernel_dispatch.hh"

namespace qgpu
{

StateVector::StateVector(int num_qubits)
    : numQubits_(num_qubits), amps_(stateSize(num_qubits), Amp{0, 0})
{
    amps_[0] = Amp{1, 0};
}

StateVector::StateVector(int num_qubits, std::vector<Amp> &&amps)
    : numQubits_(num_qubits), amps_(std::move(amps))
{
    if (amps_.size() != stateSize(num_qubits))
        QGPU_PANIC("adopted ", amps_.size(), " amplitudes for a ",
                   num_qubits, "-qubit register");
}

void
StateVector::apply(const Gate &gate)
{
    const WallClock wall;
    Amp *data = amps_.data();
    const KernelSpec spec = makeKernelSpec(gate);
    const Index items = kernelWorkItems(spec, numQubits_);
    const int threads = simThreads();
    if (threads <= 1) {
        applyKernel(spec, data, numQubits_, 0, items);
    } else {
        // Work items (pairs/groups/amplitudes) are independent, so
        // the range splits freely across the pool's workers.
        parallelFor(0, items, threads,
                    [&](std::uint64_t lo, std::uint64_t hi) {
                        applyKernel(spec, data, numQubits_, lo, hi);
                    });
    }
    recordKernelMetrics(spec.kind,
                        items * static_cast<Index>(
                                    kernelItemWidth(spec)));
    MetricsRegistry::global().observe("apply.wall_time",
                                      wall.seconds());
}

void
StateVector::apply(const Circuit &circuit)
{
    if (circuit.numQubits() != numQubits_)
        QGPU_PANIC("circuit register ", circuit.numQubits(),
                   " != state register ", numQubits_);
    for (const Gate &g : circuit.gates())
        apply(g);
}

double
StateVector::norm() const
{
    double sum = 0.0;
    for (const Amp &a : amps_)
        sum += std::norm(a);
    return sum;
}

double
StateVector::fidelity(const StateVector &other) const
{
    Amp inner{0, 0};
    for (Index i = 0; i < size(); ++i)
        inner += std::conj(amps_[i]) * other.amps_[i];
    return std::norm(inner);
}

double
StateVector::maxAbsDiff(const StateVector &other) const
{
    double worst = 0.0;
    for (Index i = 0; i < size(); ++i)
        worst = std::max(worst, std::abs(amps_[i] - other.amps_[i]));
    return worst;
}

Index
StateVector::countZeros(double tol) const
{
    Index count = 0;
    for (const Amp &a : amps_)
        if (std::abs(a.real()) <= tol && std::abs(a.imag()) <= tol)
            ++count;
    return count;
}

void
StateVector::reset()
{
    std::fill(amps_.begin(), amps_.end(), Amp{0, 0});
    amps_[0] = Amp{1, 0};
}

StateVector
simulateReference(const Circuit &circuit)
{
    StateVector state(circuit.numQubits());
    state.apply(circuit);
    return state;
}

} // namespace qgpu
