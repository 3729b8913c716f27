/**
 * @file
 * Unit tests for the pluggable cold-chunk storage layer
 * (statevec/chunk_storage.hh): backend round trips at the bit level
 * (including -0.0, denormals, and NaN payloads), the bounded working
 * set and clock eviction, zero elision vs value-zero chunks, checksum
 * tamper detection, re-partitioning under a bounded set, and the
 * shard-balanced victim preference.
 */

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <span>

#include <gtest/gtest.h>

#include "common/cacheinfo.hh"
#include "common/parallel.hh"
#include "common/thread_pool.hh"
#include "fault/injector.hh"
#include "fault/sim_error.hh"
#include "circuits/circuits.hh"
#include "statevec/apply.hh"
#include "statevec/chunked.hh"

namespace qgpu
{
namespace
{

bool
bitsEqual(const StateVector &a, const StateVector &b)
{
    if (a.numQubits() != b.numQubits())
        return false;
    for (Index i = 0; i < stateSize(a.numQubits()); ++i)
        if (std::memcmp(&a[i], &b[i], sizeof(Amp)) != 0)
            return false;
    return true;
}

StorageConfig
config(StorageKind kind, Index working_set)
{
    StorageConfig cfg;
    cfg.kind = kind;
    cfg.workingSetChunks = working_set;
    return cfg;
}

TEST(StorageKindNames, RoundTrip)
{
    for (StorageKind k : {StorageKind::Raw, StorageKind::Compressed,
                          StorageKind::Spill}) {
        StorageKind parsed = StorageKind::Raw;
        ASSERT_TRUE(parseStorageKind(storageKindName(k), parsed));
        EXPECT_EQ(parsed, k);
    }
    StorageKind out = StorageKind::Raw;
    EXPECT_FALSE(parseStorageKind("zram", out));
    EXPECT_FALSE(parseStorageKind("", out));
}

// Bit-level round trip through both real backends, in both stream
// lanes, over the payloads the codec must not normalize: signed
// zeros, denormals, NaN payloads, infinities.
TEST(ColdStoreRoundTrip, PreservesEveryBitPattern)
{
    constexpr Index kChunk = 64;
    std::vector<Amp> amps(kChunk);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double denorm = std::numeric_limits<double>::denorm_min();
    const double inf = std::numeric_limits<double>::infinity();
    for (Index i = 0; i < kChunk; ++i)
        amps[i] = Amp{0.25 * static_cast<double>(i), -0.5};
    amps[0] = Amp{-0.0, 0.0};
    amps[1] = Amp{denorm, -denorm};
    amps[2] = Amp{nan, -nan};
    amps[3] = Amp{inf, -inf};

    // The fp32 lane is only ever selected when every component
    // round-trips double->float->double bit-exactly; -0.0, float
    // denormals, and infinities all qualify (NaN payloads do not).
    const double f32_denorm = static_cast<double>(
        std::numeric_limits<float>::denorm_min());
    std::vector<Amp> exact(kChunk);
    for (Index i = 0; i < kChunk; ++i)
        exact[i] = Amp{0.25 * static_cast<double>(i), -0.5};
    exact[0] = Amp{-0.0, 0.0};
    exact[1] = Amp{f32_denorm, -f32_denorm};
    exact[2] = Amp{inf, -inf};

    // Not float-exact, so the wide lane must carry it losslessly.
    std::vector<Amp> wide(kChunk);
    for (Index i = 0; i < kChunk; ++i)
        wide[i] = Amp{1.0 + 1e-12 * static_cast<double>(i), 0.0};

    for (StorageKind kind :
         {StorageKind::Compressed, StorageKind::Spill}) {
        auto store = makeColdStore(kind, "");
        ASSERT_NE(store, nullptr) << storageKindName(kind);
        store->reset(4, kChunk);
        for (bool force_raw : {false, true}) {
            const StoredInfo f64_info =
                store->store(0, amps, false, force_raw);
            const StoredInfo f32_info =
                store->store(1, exact, true, force_raw);
            const StoredInfo wide_info =
                store->store(2, wide, false, force_raw);
            std::vector<Amp> out(kChunk);
            store->load(0, out, f64_info.streamSum);
            EXPECT_EQ(std::memcmp(out.data(), amps.data(),
                                  kChunk * sizeof(Amp)),
                      0)
                << storageKindName(kind) << " f64 raw=" << force_raw;
            store->load(1, out, f32_info.streamSum);
            EXPECT_EQ(std::memcmp(out.data(), exact.data(),
                                  kChunk * sizeof(Amp)),
                      0)
                << storageKindName(kind) << " f32 raw=" << force_raw;
            store->load(2, out, wide_info.streamSum);
            EXPECT_EQ(std::memcmp(out.data(), wide.data(),
                                  kChunk * sizeof(Amp)),
                      0)
                << storageKindName(kind) << " wide raw=" << force_raw;
        }
        store->drop(0);
        store->drop(1);
        store->drop(2);
        EXPECT_EQ(store->hostBytes(), 0u) << storageKindName(kind);
    }
}

TEST(ColdStoreRoundTrip, CompressedBeatsRawOnStructuredData)
{
    constexpr Index kChunk = 1 << 10;
    std::vector<Amp> amps(kChunk);
    for (Index i = 0; i < kChunk; ++i)
        amps[i] = Amp{1.0 / 32.0, 0.0}; // one repeated pattern
    auto store = makeColdStore(StorageKind::Compressed, "");
    store->reset(1, kChunk);
    const StoredInfo info = store->store(0, amps, false, false);
    EXPECT_LT(info.storedBytes, kChunk * sizeof(Amp) / 2);
    EXPECT_EQ(store->hostBytes(), info.storedBytes);
}

TEST(ColdStoreRoundTrip, TamperedStreamThrowsChecksumMismatch)
{
    constexpr Index kChunk = 128;
    std::vector<Amp> amps(kChunk);
    for (Index i = 0; i < kChunk; ++i)
        amps[i] = Amp{std::sin(0.1 * static_cast<double>(i)), 0.25};
    FaultInjector injector(FaultSpec{}, 99);
    for (StorageKind kind :
         {StorageKind::Compressed, StorageKind::Spill}) {
        auto store = makeColdStore(kind, "");
        store->reset(1, kChunk);
        const StoredInfo info = store->store(0, amps, false, false);
        store->corruptStored(0, injector);
        EXPECT_NE(store->storedSum(0), info.streamSum)
            << storageKindName(kind);
        std::vector<Amp> out(kChunk);
        try {
            store->load(0, out, info.streamSum);
            FAIL() << storageKindName(kind)
                   << " decoded a tampered stream";
        } catch (const SimException &e) {
            EXPECT_EQ(e.error().code, SimErrorCode::ChecksumMismatch);
            EXPECT_EQ(e.error().chunk, 0);
        }
    }
}

TEST(BoundedState, RespectsWorkingSetAndStaysBitIdentical)
{
    constexpr int kQubits = 10;
    constexpr int kChunkBits = 6; // 16 chunks of 64 amps
    const Circuit circuit =
        circuits::makeBenchmark("random", kQubits, 7);

    ChunkedStateVector raw(kQubits, kChunkBits);
    applyCircuitChunked(raw, circuit);
    const StateVector want = raw.toFlat();

    for (StorageKind kind :
         {StorageKind::Compressed, StorageKind::Spill}) {
        ChunkedStateVector state(kQubits, kChunkBits,
                                 config(kind, 4));
        ASSERT_TRUE(state.boundedStorage());
        EXPECT_EQ(state.residency()->workingSet(), 4);
        EXPECT_EQ(state.residency()->maxPinnedBlock(), 2);
        applyCircuitChunked(state, circuit);

        const StorageStats stats = state.storageStats();
        EXPECT_LE(stats.residentChunks, 4u) << storageKindName(kind);
        EXPECT_GT(stats.evictions, 0u) << storageKindName(kind);
        EXPECT_GT(stats.decompressMisses, 0u)
            << storageKindName(kind);
        if (kind == StorageKind::Spill)
            EXPECT_GT(stats.spillBytes, 0u);
        else
            EXPECT_GT(stats.coldBytes, 0u);

        // toFlat reads cold chunks without residency churn, and the
        // contract is bit identity, not a tolerance.
        const StateVector got = state.toFlat();
        EXPECT_EQ(got.maxAbsDiff(want), 0.0) << storageKindName(kind);
        EXPECT_TRUE(bitsEqual(got, want)) << storageKindName(kind);
        EXPECT_DOUBLE_EQ(state.norm(), raw.norm());
    }
}

TEST(BoundedState, MultiThreadedSweepMatchesSingleThreaded)
{
    constexpr int kQubits = 10;
    constexpr int kChunkBits = 6;
    const Circuit circuit =
        circuits::makeBenchmark("random", kQubits, 11);

    setSimThreads(1);
    ChunkedStateVector ref(kQubits, kChunkBits,
                           config(StorageKind::Compressed, 4));
    applyCircuitChunked(ref, circuit);
    const StateVector want = ref.toFlat();

    setSimThreads(0); // all cores
    ChunkedStateVector state(kQubits, kChunkBits,
                             config(StorageKind::Compressed, 4));
    applyCircuitChunked(state, circuit);
    EXPECT_TRUE(bitsEqual(state.toFlat(), want));
    setSimThreads(1);
}

TEST(BoundedState, FromFlatElidesZerosAndToFlatRestores)
{
    constexpr int kQubits = 8;
    constexpr int kChunkBits = 4; // 16 chunks of 16 amps
    StateVector flat(kQubits);
    // Chunks 0..3 carry data, the rest stay byte-zero.
    for (Index i = 0; i < 64; ++i)
        flat[i] = Amp{0.125, -0.125};

    ChunkedStateVector state(kQubits, kChunkBits,
                             config(StorageKind::Compressed, 4));
    state.fromFlat(flat);
    const StorageStats stats = state.storageStats();
    EXPECT_GE(stats.zeroChunks, 12u);
    EXPECT_TRUE(bitsEqual(state.toFlat(), flat));
    for (Index c = 4; c < state.numChunks(); ++c)
        EXPECT_TRUE(state.chunkIsZero(c)) << c;
}

// A chunk of -0.0 is VALUE zero but not BYTE zero: eviction must keep
// its payload (Cold, not elided to Zero) so refill reproduces the
// sign bits, while chunkIsZero still reports it zero-valued.
TEST(BoundedState, NegativeZeroChunksSurviveEviction)
{
    constexpr int kQubits = 8;
    constexpr int kChunkBits = 4;
    StateVector flat(kQubits);
    flat[0] = Amp{1.0, 0.0};
    for (Index i = 16; i < 32; ++i) // chunk 1: all -0.0
        flat[i] = Amp{-0.0, -0.0};

    ChunkedStateVector state(kQubits, kChunkBits,
                             config(StorageKind::Compressed, 2));
    state.fromFlat(flat);
    // Touch other chunks so chunk 1 gets evicted.
    for (Index c = 2; c < 6; ++c)
        state.chunk(c);
    using State = ChunkResidency::State;
    ASSERT_EQ(state.residency()->stateOf(1), State::Cold);
    EXPECT_TRUE(state.residency()->knownZero(1));
    EXPECT_TRUE(state.chunkIsZero(1));

    const StateVector got = state.toFlat();
    EXPECT_TRUE(bitsEqual(got, flat));
    for (Index i = 16; i < 32; ++i)
        EXPECT_TRUE(std::signbit(got[i].real()) &&
                    std::signbit(got[i].imag()))
            << i;
}

TEST(BoundedState, RechunkMatchesRawRepartition)
{
    constexpr int kQubits = 9;
    const Circuit circuit =
        circuits::makeBenchmark("qft", kQubits);

    ChunkedStateVector raw(kQubits, 5);
    applyCircuitChunked(raw, circuit);
    raw.rechunk(3);

    ChunkedStateVector state(kQubits, 5,
                             config(StorageKind::Compressed, 4));
    applyCircuitChunked(state, circuit);
    state.rechunk(3);
    ASSERT_TRUE(state.boundedStorage());
    EXPECT_EQ(state.numChunks(), raw.numChunks());
    EXPECT_LE(state.storageStats().residentChunks, 4u);
    EXPECT_TRUE(bitsEqual(state.toFlat(), raw.toFlat()));
}

TEST(BoundedState, ConfigureStorageSwitchesBackAndForth)
{
    constexpr int kQubits = 8;
    const Circuit circuit =
        circuits::makeBenchmark("hlf", kQubits, 3);
    ChunkedStateVector raw(kQubits, 4);
    applyCircuitChunked(raw, circuit);
    const StateVector want = raw.toFlat();

    ChunkedStateVector state(kQubits, 4);
    applyCircuitChunked(state, circuit);
    state.configureStorage(config(StorageKind::Spill, 4));
    ASSERT_TRUE(state.boundedStorage());
    EXPECT_LE(state.storageStats().residentChunks, 4u);
    EXPECT_TRUE(bitsEqual(state.toFlat(), want));

    state.configureStorage(config(StorageKind::Raw, 0));
    EXPECT_FALSE(state.boundedStorage());
    EXPECT_TRUE(bitsEqual(state.toFlat(), want));
}

TEST(BoundedState, PinnedBlocksRefillAndNeverEvict)
{
    constexpr int kQubits = 8;
    constexpr int kChunkBits = 4; // 16 chunks
    StateVector flat(kQubits);
    for (Index i = 0; i < stateSize(kQubits); ++i)
        flat[i] = Amp{1e-3 * static_cast<double>(i + 1), 0.5};
    ChunkedStateVector state(kQubits, kChunkBits,
                             config(StorageKind::Compressed, 8));
    state.fromFlat(flat);

    ChunkResidency &res = *state.residency();
    const std::vector<Index> block = {0, 5, 9, 13};
    res.pinAsync(block);
    res.waitPins();
    using State = ChunkResidency::State;
    for (Index c : block) {
        EXPECT_EQ(res.stateOf(c), State::Resident) << c;
        EXPECT_FALSE(state.chunk(c).empty()) << c;
    }
    // Force eviction pressure: pinned chunks must keep their slots.
    for (Index c = 0; c < state.numChunks(); ++c)
        state.chunk(c);
    for (Index c : block)
        EXPECT_EQ(res.stateOf(c), State::Resident) << c;
    res.unpin(block);
    EXPECT_TRUE(bitsEqual(state.toFlat(), flat));
}

TEST(BoundedState, TamperedRefillsFailTheBlockAndFillTheRest)
{
    // A pinned block refills in one pool task, running alongside the
    // scheduling thread. Two tampered chunks in the block must not
    // stop the other fills: waitPins reports the first failure in
    // block order as a structured error once every fill ran.
    constexpr int kQubits = 8;
    constexpr int kChunkBits = 4; // 16 chunks
    const Index chunk_size = Index{1} << kChunkBits;
    StateVector flat(kQubits);
    for (Index i = 0; i < stateSize(kQubits); ++i)
        flat[i] = Amp{std::sin(0.01 * static_cast<double>(i)), 0.125};
    for (const int threads : {1, 4}) {
        setSimThreads(threads);
        ThreadPool::global().ensureWorkers(threads);
        {
            ChunkedStateVector state(kQubits, kChunkBits,
                                     config(StorageKind::Compressed, 8));
            state.fromFlat(flat);
            ChunkResidency &res = *state.residency();
            std::vector<Index> block;
            for (Index c = 0; c < state.numChunks(); ++c)
                if (res.stateOf(c) == ChunkResidency::State::Cold &&
                    static_cast<Index>(block.size()) <
                        res.maxPinnedBlock())
                    block.push_back(c);
            ASSERT_EQ(block.size(), 4u);
            FaultInjector injector(FaultSpec{}, 11);
            res.coldStore().corruptStored(block[1], injector);
            res.coldStore().corruptStored(block[3], injector);

            res.pinAsync(block);
            try {
                res.waitPins();
                FAIL() << "tampered refills went unnoticed";
            } catch (const SimException &e) {
                EXPECT_EQ(e.error().code, SimErrorCode::ChecksumMismatch);
                EXPECT_EQ(e.error().chunk,
                          static_cast<std::int64_t>(block[1]));
            }
            for (const Index c : {block[0], block[2]}) {
                const std::span<const Amp> slot = state.chunk(c);
                ASSERT_EQ(static_cast<Index>(slot.size()), chunk_size);
                EXPECT_EQ(std::memcmp(slot.data(), &flat[c * chunk_size],
                                      chunk_size * sizeof(Amp)),
                          0)
                    << "chunk " << c << ", threads " << threads;
            }
            res.unpin(block);
        } // the residency must tear down without hanging
    }
    setSimThreads(1);
}

TEST(BoundedState, FailedRefillLeavesTheChunkColdWithItsCopy)
{
    // A refill that fails its checksum must not leave a zero-filled
    // Resident slot behind, nor let a later successful block drop the
    // only stored copy: the chunk is Cold again, and every read of it
    // fails the same way.
    constexpr int kQubits = 8;
    constexpr int kChunkBits = 4; // 16 chunks
    const Index chunk_size = Index{1} << kChunkBits;
    StateVector flat(kQubits);
    for (Index i = 0; i < stateSize(kQubits); ++i)
        flat[i] = Amp{std::cos(0.02 * static_cast<double>(i)), -0.5};
    const auto expectMismatch = [](auto &&read, Index c) {
        try {
            read();
            ADD_FAILURE() << "tampered chunk " << c << " read back";
        } catch (const SimException &e) {
            EXPECT_EQ(e.error().code, SimErrorCode::ChecksumMismatch);
            EXPECT_EQ(e.error().chunk, static_cast<std::int64_t>(c));
        }
    };
    for (const int threads : {1, 4}) {
        setSimThreads(threads);
        ThreadPool::global().ensureWorkers(threads);
        ChunkedStateVector state(kQubits, kChunkBits,
                                 config(StorageKind::Compressed, 8));
        state.fromFlat(flat);
        ChunkResidency &res = *state.residency();
        std::vector<Index> cold;
        for (Index c = 0; c < state.numChunks(); ++c)
            if (res.stateOf(c) == ChunkResidency::State::Cold)
                cold.push_back(c);
        ASSERT_GE(cold.size(), 3u);
        const Index bad = cold[0];
        FaultInjector injector(FaultSpec{}, 11);
        res.coldStore().corruptStored(bad, injector);
        const std::uint64_t tampered = res.coldStore().storedSum(bad);

        const std::vector<Index> one = {bad};
        res.pinAsync(one);
        expectMismatch([&] { res.waitPins(); }, bad);
        res.unpin(one);
        EXPECT_EQ(res.stateOf(bad), ChunkResidency::State::Cold);
        // The working-set count gave the slot back.
        const StorageStats stats = res.stats();
        EXPECT_EQ(stats.residentBytes,
                  stats.residentChunks * chunk_size * sizeof(Amp));

        // A later block that refills cleanly drops only its own
        // chunks' cold copies.
        const std::vector<Index> others = {cold[1], cold[2]};
        res.pin(others);
        res.unpin(others);
        for (const Index c : others)
            EXPECT_EQ(std::memcmp(state.chunk(c).data(),
                                  &flat[c * chunk_size],
                                  chunk_size * sizeof(Amp)),
                      0)
                << "chunk " << c;
        EXPECT_EQ(res.stateOf(bad), ChunkResidency::State::Cold);
        EXPECT_EQ(res.coldStore().storedSum(bad), tampered);

        // Decoding it in place and refilling it on access both fail
        // again; the chunk stays Cold.
        std::vector<Amp> out(chunk_size);
        expectMismatch([&] { res.readChunk(bad, out.data()); }, bad);
        expectMismatch([&] { state.chunk(bad); }, bad);
        EXPECT_EQ(res.stateOf(bad), ChunkResidency::State::Cold);
        EXPECT_EQ(res.coldStore().storedSum(bad), tampered)
            << "threads " << threads;
    }
    setSimThreads(1);
}

TEST(BoundedState, ShardBalancedEvictionKeepsDevicesEven)
{
    constexpr int kQubits = 9;
    constexpr int kChunkBits = 5; // 16 chunks
    StateVector flat(kQubits);
    for (Index i = 0; i < stateSize(kQubits); ++i)
        flat[i] = Amp{2e-3 * static_cast<double>(i + 1), -0.25};

    ChunkedStateVector state(kQubits, kChunkBits,
                             config(StorageKind::Compressed, 8));
    // Top-bit split: chunks 0-7 on device 0, 8-15 on device 1.
    std::vector<int> device_of(16, 0);
    for (Index c = 8; c < 16; ++c)
        device_of[c] = 1;
    state.setDeviceMap(device_of);
    state.fromFlat(flat);
    // Sweep every chunk a few times to churn the working set.
    for (int pass = 0; pass < 3; ++pass)
        for (Index c = 0; c < state.numChunks(); ++c)
            state.chunk(c);

    const std::vector<Index> per_dev =
        state.residency()->deviceResident();
    ASSERT_EQ(per_dev.size(), 2u);
    EXPECT_EQ(per_dev[0] + per_dev[1],
              state.storageStats().residentChunks);
    // Neither device's shard may monopolize the working set.
    EXPECT_GT(per_dev[0], 0u);
    EXPECT_GT(per_dev[1], 0u);
    EXPECT_TRUE(bitsEqual(state.toFlat(), flat));
}

TEST(BoundedState, AutoBudgetIsClampedToValidRange)
{
    constexpr int kQubits = 8;
    ChunkedStateVector state(kQubits, 4,
                             config(StorageKind::Compressed, 0));
    const Index budget = state.residency()->workingSet();
    EXPECT_GE(budget, std::min<Index>(4, state.numChunks()));
    EXPECT_LE(budget, state.numChunks());
    EXPECT_EQ(state.storageStats().workingSet,
              static_cast<std::uint64_t>(budget));
}

TEST(HostRam, EnvOverrideWins)
{
    ASSERT_EQ(setenv("QGPU_HOST_RAM_BYTES", "1G", 1), 0);
    EXPECT_EQ(detectHostRamBytes(), std::uint64_t{1} << 30);
    ASSERT_EQ(setenv("QGPU_HOST_RAM_BYTES", "512M", 1), 0);
    EXPECT_EQ(detectHostRamBytes(), std::uint64_t{512} << 20);
    unsetenv("QGPU_HOST_RAM_BYTES");
    // Without the override the probe still reports something sane.
    EXPECT_GE(detectHostRamBytes(), std::uint64_t{1} << 28);
}

TEST(BoundedState, PrecisionLanesComposeWithEviction)
{
    constexpr int kQubits = 9;
    const Circuit circuit =
        circuits::makeBenchmark("random", kQubits, 21);

    ChunkedStateVector raw(kQubits, 5);
    raw.setPrecision(Precision::adaptive, 1e-6);
    applyCircuitChunked(raw, circuit);
    raw.refreshPrecision();
    const StateVector want = raw.toFlat();

    ChunkedStateVector state(kQubits, 5,
                             config(StorageKind::Compressed, 4));
    state.setPrecision(Precision::adaptive, 1e-6);
    applyCircuitChunked(state, circuit);
    state.refreshPrecision();
    EXPECT_TRUE(bitsEqual(state.toFlat(), want));
    EXPECT_EQ(state.promotedChunks(), raw.promotedChunks());
}

} // namespace
} // namespace qgpu
