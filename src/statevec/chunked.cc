#include "statevec/chunked.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/parallel.hh"

namespace qgpu
{

ChunkedStateVector::ChunkedStateVector(int num_qubits, int chunk_bits)
    : ChunkedStateVector(num_qubits, chunk_bits, StorageConfig{})
{
}

ChunkedStateVector::ChunkedStateVector(int num_qubits, int chunk_bits,
                                       const StorageConfig &storage)
    : numQubits_(num_qubits), chunkBits_(chunk_bits),
      storageCfg_(storage)
{
    if (chunk_bits < 0 || chunk_bits > num_qubits)
        QGPU_FATAL("chunk bits ", chunk_bits, " outside [0, ",
                   num_qubits, "]");
    if (storage.kind == StorageKind::Raw) {
        arena_.assign(stateSize(num_qubits), Amp{0, 0});
        arena_[0] = Amp{1, 0};
        return;
    }
    // Bounded storage: every chunk starts elided (known zero); only
    // chunk 0 is materialized to hold the |0...0> amplitude. The full
    // register is never allocated at once.
    slots_.assign(numChunks(), std::vector<Amp>{});
    setupResidency();
    residency_->ensure(0);
    slots_[0][0] = Amp{1, 0};
}

void
ChunkedStateVector::setupResidency()
{
    residency_ = std::make_unique<ChunkResidency>(
        storageCfg_, numChunks(), chunkSize(), slots_);
}

void
ChunkedStateVector::joinSlots()
{
    residency_->materializeAll();
    residency_.reset();
    arena_.resize(stateSize(numQubits_));
    for (Index c = 0; c < numChunks(); ++c)
        std::ranges::copy(slots_[c], arena_.data() + (c << chunkBits_));
    std::vector<std::vector<Amp>>().swap(slots_);
}

void
ChunkedStateVector::splitArena()
{
    slots_.assign(numChunks(), std::vector<Amp>{});
    for (Index c = 0; c < numChunks(); ++c) {
        const Amp *src = arena_.data() + (c << chunkBits_);
        slots_[c].assign(src, src + chunkSize());
    }
    std::vector<Amp>().swap(arena_);
    setupResidency();
}

void
ChunkedStateVector::configureStorage(const StorageConfig &storage)
{
    if (residency_)
        joinSlots();
    storageCfg_ = storage;
    if (storage.kind != StorageKind::Raw)
        splitArena();
}

void
ChunkedStateVector::reset()
{
    if (residency_) {
        residency_.reset();
        std::vector<std::vector<Amp>>(numChunks()).swap(slots_);
        setupResidency();
        residency_->ensure(0);
        slots_[0][0] = Amp{1, 0};
    } else {
        std::fill(arena_.begin(), arena_.end(), Amp{0, 0});
        arena_[0] = Amp{1, 0};
    }
    refreshPrecision();
}

void
ChunkedStateVector::rechunk(int new_bits)
{
    if (new_bits == chunkBits_)
        return;
    if (new_bits < 0 || new_bits > numQubits_)
        QGPU_FATAL("chunk bits ", new_bits, " outside [0, ",
                   numQubits_, "]");

    // Raw storage only relabels the arena. Bounded storage
    // transiently materializes everything into the arena and re-scans
    // it into the new chunk geometry (enforcing the budget again).
    const bool bounded = residency_ != nullptr;
    if (bounded)
        joinSlots();
    chunkBits_ = new_bits;
    // Lane tags are per chunk; re-derive them for the new partition.
    // Amplitudes in fp32 lanes are already rounded, so no re-quantize
    // is needed (rounding is idempotent).
    retagChunks();
    if (bounded)
        splitArena();
}

bool
ChunkedStateVector::chunkIsZero(Index c) const
{
    if (residency_ &&
        residency_->stateOf(c) != ChunkResidency::State::Resident)
        return residency_->knownZero(c);
    for (const Amp &a : chunkData(c))
        if (a != Amp{0, 0})
            return false;
    return true;
}

StateVector
ChunkedStateVector::toFlat() const
{
    StateVector out(numQubits_);
    if (residency_) {
        // Chunk-wise, without residency churn: cold chunks decode
        // straight into the flat buffer and stay cold.
        for (Index c = 0; c < numChunks(); ++c)
            residency_->readChunk(c, &out[c << chunkBits_]);
        return out;
    }
    std::ranges::copy(arena_, out.amplitudes().begin());
    return out;
}

StateVector
ChunkedStateVector::takeFlat()
{
    if (residency_)
        return toFlat();
    return StateVector(numQubits_, std::move(arena_));
}

void
ChunkedStateVector::fromFlat(const StateVector &state)
{
    if (state.numQubits() != numQubits_)
        QGPU_PANIC("flat state register ", state.numQubits(),
                   " != chunked register ", numQubits_);
    if (residency_) {
        for (Index c = 0; c < numChunks(); ++c)
            residency_->writeChunk(c, &state[c << chunkBits_]);
        return;
    }
    std::ranges::copy(state.amplitudes(), arena_.begin());
}

double
ChunkedStateVector::norm() const
{
    double sum = 0.0;
    if (residency_) {
        std::vector<Amp> scratch;
        for (Index c = 0; c < numChunks(); ++c) {
            using State = ChunkResidency::State;
            const State s = residency_->stateOf(c);
            if (s == State::Zero)
                continue;
            const Amp *data;
            if (s == State::Resident) {
                data = slots_[c].data();
            } else {
                scratch.resize(chunkSize());
                residency_->readChunk(c, scratch.data());
                data = scratch.data();
            }
            for (Index i = 0; i < chunkSize(); ++i)
                sum += std::norm(data[i]);
        }
        return sum;
    }
    for (const Amp &a : arena_)
        sum += std::norm(a);
    return sum;
}

void
ChunkedStateVector::setPrecision(Precision p, double promote_threshold)
{
    precision_ = p;
    promoteThreshold_ = promote_threshold;
    refreshPrecision();
}

void
ChunkedStateVector::retagChunks()
{
    if (precision_ == Precision::f64) {
        chunkF32_.clear();
        return;
    }
    chunkF32_.assign(numChunks(), 1);
    if (precision_ != Precision::adaptive)
        return;
    for (Index c = 0; c < numChunks(); ++c) {
        double max_mag = 0.0;
        for (const Amp &a : chunkData(c)) {
            max_mag = std::max(max_mag, std::abs(a.real()));
            max_mag = std::max(max_mag, std::abs(a.imag()));
        }
        if (max_mag < promoteThreshold_)
            chunkF32_[c] = 0;
    }
}

void
ChunkedStateVector::refreshPrecision()
{
    if (precision_ == Precision::f64) {
        chunkF32_.clear();
        return;
    }
    if (residency_) {
        // Per chunk: materialize (cold chunks round-trip losslessly,
        // so tags are still decided on pre-quantize values), re-tag,
        // then round fp32-lane chunks in place. Interleaving chunks
        // is bit-identical to the raw two-phase path because tag and
        // rounding are pure per-chunk functions. Known-zero chunks
        // skip materialization outright: their tag is what a zero
        // scan yields and rounding zeros is the identity.
        chunkF32_.assign(numChunks(), 1);
        for (Index c = 0; c < numChunks(); ++c) {
            if (residency_->stateOf(c) !=
                    ChunkResidency::State::Resident &&
                residency_->knownZero(c)) {
                if (precision_ == Precision::adaptive)
                    chunkF32_[c] = 0;
                continue;
            }
            double *raw = reinterpret_cast<double *>(chunk(c).data());
            const Index lanes = 2 * chunkSize();
            if (precision_ == Precision::adaptive) {
                double max_mag = 0.0;
                for (Index i = 0; i < lanes; ++i)
                    max_mag = std::max(max_mag, std::abs(raw[i]));
                if (max_mag < promoteThreshold_) {
                    chunkF32_[c] = 0;
                    continue;
                }
            }
            for (Index i = 0; i < lanes; ++i)
                raw[i] =
                    static_cast<double>(static_cast<float>(raw[i]));
        }
        return;
    }
    retagChunks();
    const double cost =
        static_cast<double>(chunkSize()) * sizeof(Amp);
    parallelFor(
        Index{0}, numChunks(), simThreads(),
        [&](Index cb, Index ce) {
            for (Index c = cb; c < ce; ++c) {
                if (!chunkIsF32(c))
                    continue;
                // Quantize through the raw double view: identical to
                // quantizeAmpF32 per component, but free of the
                // complex-typed narrowing that GCC 12 miscompiles
                // (see quantizeAmpF32) and vectorizable.
                double *raw =
                    reinterpret_cast<double *>(chunkData(c).data());
                const Index lanes = 2 * chunkSize();
                for (Index i = 0; i < lanes; ++i)
                    raw[i] = static_cast<double>(
                        static_cast<float>(raw[i]));
            }
        },
        1, cost);
}

std::uint64_t
ChunkedStateVector::totalStoredBytes() const
{
    std::uint64_t sum = 0;
    for (Index c = 0; c < numChunks(); ++c)
        sum += chunkStoredBytes(c);
    return sum;
}

Index
ChunkedStateVector::promotedChunks() const
{
    if (precision_ != Precision::adaptive)
        return 0;
    Index n = 0;
    for (Index c = 0; c < numChunks(); ++c)
        if (!chunkIsF32(c))
            ++n;
    return n;
}

} // namespace qgpu
