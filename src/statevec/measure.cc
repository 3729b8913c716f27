#include "statevec/measure.hh"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/bits.hh"
#include "common/logging.hh"
#include "statevec/chunked.hh"

namespace qgpu
{

std::vector<double>
probabilities(const StateVector &state)
{
    std::vector<double> out(state.size());
    for (Index i = 0; i < state.size(); ++i)
        out[i] = std::norm(state[i]);
    return out;
}

std::vector<double>
marginalProbabilities(const StateVector &state,
                      const std::vector<int> &qubits)
{
    std::vector<double> out(Index{1} << qubits.size(), 0.0);
    for (Index i = 0; i < state.size(); ++i) {
        Index key = 0;
        for (std::size_t j = 0; j < qubits.size(); ++j)
            if (bits::testBit(i, qubits[j]))
                key = bits::setBit(key, static_cast<int>(j));
        out[key] += std::norm(state[i]);
    }
    return out;
}

std::map<Index, std::uint64_t>
sampleCounts(const StateVector &state, std::uint64_t shots, Rng &rng)
{
    // Build the CDF once; binary-search per shot.
    std::vector<double> cdf(state.size());
    double acc = 0.0;
    for (Index i = 0; i < state.size(); ++i) {
        acc += std::norm(state[i]);
        cdf[i] = acc;
    }
    if (std::abs(acc - 1.0) > 1e-6)
        QGPU_WARN("sampling an unnormalized state (norm = ", acc, ")");

    std::map<Index, std::uint64_t> counts;
    for (std::uint64_t s = 0; s < shots; ++s) {
        const double u = rng.nextDouble() * acc;
        const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
        const Index outcome =
            static_cast<Index>(it - cdf.begin());
        ++counts[std::min<Index>(outcome, state.size() - 1)];
    }
    return counts;
}

namespace
{

// Shared inverse-CDF core: `accumulate` must invoke its callback
// with every |a_i|^2 in ascending index order, identically on both
// passes. Pass 1 totals the norm with the same summation order
// sampleCounts uses; pass 2 replays it and stops at the first index
// whose running sum reaches u (== lower_bound on the CDF array).
template <typename Accumulate>
Index
inverseCdfDraw(Index size, Rng &rng, Accumulate &&accumulate)
{
    double acc = 0.0;
    accumulate([&](double p, Index) { acc += p; return true; });
    const double u = rng.nextDouble() * acc;
    double running = 0.0;
    Index outcome = size == 0 ? 0 : size - 1;
    accumulate([&](double p, Index i) {
        running += p;
        if (running >= u) {
            outcome = i;
            return false;
        }
        return true;
    });
    return std::min<Index>(outcome, size - 1);
}

/** inverseCdfDraw over one contiguous register. */
Index
drawFromAmps(std::span<const Amp> amps, Rng &rng)
{
    return inverseCdfDraw(amps.size(), rng, [&](auto &&visit) {
        for (Index i = 0; i < amps.size(); ++i)
            if (!visit(std::norm(amps[i]), i))
                return;
    });
}

} // namespace

Index
sampleOutcome(const StateVector &state, Rng &rng)
{
    return drawFromAmps(state.amplitudes(), rng);
}

Index
sampleOutcome(const ChunkedStateVector &state, Rng &rng)
{
    if (!state.boundedStorage())
        return drawFromAmps(state.arena(), rng);
    const Index chunk_size = state.chunkSize();
    return inverseCdfDraw(
        state.numChunks() * chunk_size, rng, [&](auto &&visit) {
            for (Index c = 0; c < state.numChunks(); ++c) {
                const std::span<const Amp> amps = state.chunk(c);
                const Index base = c * chunk_size;
                for (Index i = 0; i < chunk_size; ++i)
                    if (!visit(std::norm(amps[i]), base + i))
                        return;
            }
        });
}

void
mergeCounts(std::map<Index, std::uint64_t> &into,
            const std::map<Index, std::uint64_t> &from)
{
    for (const auto &[outcome, hits] : from)
        into[outcome] += hits;
}

double
probabilityOfOne(const StateVector &state, int q)
{
    double p = 0.0;
    for (Index i = 0; i < state.size(); ++i)
        if (bits::testBit(i, q))
            p += std::norm(state[i]);
    return p;
}

} // namespace qgpu
