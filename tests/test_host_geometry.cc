/**
 * @file
 * Host geometry is scheduling only. Under raw storage the sweep
 * executor runs kernels in place over host blocks of the contiguous
 * arena; ScopedGatherPath forces the per-chunk and gather path that
 * bounded storage uses. Final states must be byte-identical
 * (memcmp, so signed zeros count) between the two, for every family
 * and version, at every thread count, with and without dynamic
 * chunks, and so must noisy batched outcome streams.
 *
 * The binary runs with a 64K L2 override (tests/CMakeLists.txt): the
 * sweep tile is then 2^11 amplitudes, so a 12-qubit register splits
 * into several host blocks and the widest cross-chunk sweeps
 * out-size the tile and take the whole-group path.
 *
 * The arena tests pin the memory behaviour: rechunk only relabels,
 * the final state is the arena itself, and a reset reuses it.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <span>
#include <string>

#include "circuits/circuits.hh"
#include "common/parallel.hh"
#include "engine/batched.hh"
#include "harness/experiment.hh"
#include "statevec/apply.hh"
#include "statevec/chunked.hh"

namespace qgpu
{
namespace
{

constexpr int kQubits = 12;

bool
sameBytes(std::span<const Amp> a, std::span<const Amp> b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(Amp)) == 0;
}

RunResult
runVersion(const std::string &version, const Circuit &circuit,
           int threads, bool dynamic, bool gather)
{
    ExecOptions o;
    o.keepState = true;
    o.faultSpec = "none";
    o.dynamicChunks = dynamic;
    Machine machine = harness::benchMachine(circuit.numQubits());
    setSimThreads(threads);
    std::optional<ScopedGatherPath> force;
    if (gather)
        force.emplace();
    RunResult r = harness::makeEngine(version, machine, o)->run(circuit);
    setSimThreads(1);
    return r;
}

class HostGeometry : public ::testing::TestWithParam<std::string>
{
  protected:
    void TearDown() override { setSimThreads(1); }
};

TEST_P(HostGeometry, InPlaceBlocksMatchGatherPathByteForByte)
{
    const std::string &family = GetParam();
    const Circuit circuit = circuits::makeBenchmark(family, kQubits);
    for (const char *version : {"naive", "pruning", "qgpu"}) {
        for (const bool dynamic : {true, false}) {
            const RunResult ref =
                runVersion(version, circuit, 1, dynamic, true);
            ASSERT_TRUE(ref.ok());
            for (const int threads : {1, 4}) {
                const RunResult got =
                    runVersion(version, circuit, threads, dynamic, false);
                ASSERT_TRUE(got.ok());
                const std::string where =
                    family + " " + version + " at " +
                    std::to_string(threads) + " threads, dynamic " +
                    (dynamic ? "on" : "off");
                EXPECT_TRUE(sameBytes(got.state.amplitudes(),
                                      ref.state.amplitudes()))
                    << where;
                EXPECT_EQ(got.totalTime, ref.totalTime) << where;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, HostGeometry,
    ::testing::ValuesIn(circuits::benchmarkNames()),
    [](const auto &info) { return info.param; });

TEST(HostGeometryBatched, NoisyOutcomeStreamsMatchGatherPath)
{
    const Circuit circuit = circuits::makeBenchmark("random", kQubits, 5);
    const auto batch = [&](int threads, bool gather) {
        ExecOptions o;
        o.faultSpec = "none";
        o.noiseSpec = "pauli1:0.05,pauli2:0.04,damp:0.03,readout:0.02";
        o.batchMode = BatchMode::Shared;
        o.keepShotStates = true;
        Machine machine = harness::benchMachine(kQubits);
        setSimThreads(threads);
        std::optional<ScopedGatherPath> force;
        if (gather)
            force.emplace();
        BatchResult br =
            harness::makeEngine("qgpu", machine, o)->runBatched(circuit,
                                                                 24);
        setSimThreads(1);
        return br;
    };
    const BatchResult ref = batch(1, true);
    ASSERT_TRUE(ref.ok());
    ASSERT_GT(ref.stats.get(statkeys::noiseEvents), 0.0);
    for (const int threads : {1, 4}) {
        const BatchResult got = batch(threads, false);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(got.outcomes, ref.outcomes) << threads << " threads";
        ASSERT_EQ(got.states.size(), ref.states.size());
        for (std::size_t s = 0; s < ref.states.size(); ++s)
            EXPECT_TRUE(sameBytes(got.states[s].amplitudes(),
                                  ref.states[s].amplitudes()))
                << "shot " << s << " at " << threads << " threads";
    }
}

TEST(HostArena, RechunkRelabelsAndTakeFlatMovesTheArena)
{
    const Circuit circuit = circuits::makeBenchmark("qft", 10);
    ChunkedStateVector state(10, 4);
    const Amp *arena = state.arena().data();
    applyCircuitChunked(state, circuit);
    state.rechunk(7);
    EXPECT_EQ(state.arena().data(), arena);
    EXPECT_EQ(state.chunk(3).data(), arena + (3 << 7));
    state.rechunk(2);
    EXPECT_EQ(state.arena().data(), arena);

    const StateVector want = simulateReference(circuit);
    RunResult result;
    result.state = state.takeFlat();
    EXPECT_EQ(result.state.amplitudes().data(), arena);
    EXPECT_TRUE(sameBytes(result.state.amplitudes(), want.amplitudes()));
}

TEST(HostArena, ResetReusesTheArena)
{
    ExecOptions o;
    o.faultSpec = "none";
    RunState run(o, 8, 3);
    const Amp *arena = run.state.arena().data();
    applyCircuitChunked(run.state, circuits::makeBenchmark("hchain", 8));
    run.reset(o);
    EXPECT_EQ(run.state.arena().data(), arena);
    EXPECT_TRUE(sameBytes(run.state.arena(),
                          StateVector(8).amplitudes()));
}

} // namespace
} // namespace qgpu
