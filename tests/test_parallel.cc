/**
 * @file
 * Tests for the parallel-for helper and the threaded state-vector
 * apply path: identical results regardless of worker count, and no
 * file I/O on the dispatch path.
 */

#include <atomic>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "circuits/circuits.hh"
#include "common/parallel.hh"
#include "statevec/state_vector.hh"

namespace qgpu
{
namespace
{

TEST(ParallelFor, CoversRangeExactlyOnce)
{
    std::vector<std::atomic<int>> hits(10000);
    parallelFor(
        0, hits.size(), 4,
        [&](std::uint64_t lo, std::uint64_t hi) {
            for (std::uint64_t i = lo; i < hi; ++i)
                ++hits[i];
        },
        16);
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop)
{
    bool called = false;
    parallelFor(5, 5, 4, [&](std::uint64_t, std::uint64_t) {
        called = true;
    });
    EXPECT_FALSE(called);
}

TEST(ParallelFor, SmallRangeRunsInline)
{
    // Below the grain, the body runs once over the whole range.
    int calls = 0;
    parallelFor(
        0, 100, 8,
        [&](std::uint64_t lo, std::uint64_t hi) {
            ++calls;
            EXPECT_EQ(lo, 0u);
            EXPECT_EQ(hi, 100u);
        },
        1024);
    EXPECT_EQ(calls, 1);
}

/** `syscr` (read syscalls so far) from /proc/self/io; -1 if absent. */
double
readSyscalls()
{
    std::ifstream in("/proc/self/io");
    std::string key;
    double value = 0.0;
    while (in >> key >> value) {
        if (key == "syscr:")
            return value;
    }
    return -1.0;
}

// A file read on the dispatch path (the CPU count from sysfs) turns
// every small loop into a syscall; compressed storage spent most of
// its wall time in the kernel that way. 10k small loops, serial and
// fanned out, must add no read syscalls beyond the fixed cost of
// reading /proc/self/io itself, measured back to back.
TEST(ParallelFor, DispatchMakesNoReadSyscalls)
{
    if (readSyscalls() < 0.0)
        GTEST_SKIP() << "/proc/self/io is not readable";
    const auto body = [](std::uint64_t, std::uint64_t) {};
    for (const int threads : {1, 4}) {
        parallelFor(0, 4, threads, body, 1); // pool warm-up
        const double idle0 = readSyscalls();
        const double idle1 = readSyscalls();
        const double before = readSyscalls();
        for (int i = 0; i < 10000; ++i)
            parallelFor(0, 4, threads, body, 1);
        const double after = readSyscalls();
        EXPECT_LE(after - before, idle1 - idle0)
            << "threads " << threads;
    }
}

TEST(SimThreads, DefaultIsSequential)
{
    EXPECT_EQ(simThreads(), 1);
}

TEST(SimThreads, ZeroMeansHardwareConcurrency)
{
    setSimThreads(0);
    EXPECT_GE(simThreads(), 1);
    setSimThreads(1);
}

TEST(SimThreadsDeath, RejectsBadCounts)
{
    EXPECT_DEATH(setSimThreads(-1), "bad thread count");
    EXPECT_DEATH(setSimThreads(300), "bad thread count");
}

class ThreadedApply : public ::testing::TestWithParam<
                          std::tuple<std::string, int>>
{
  protected:
    void TearDown() override { setSimThreads(1); }
};

TEST_P(ThreadedApply, MatchesSequentialExactly)
{
    const auto &[family, threads] = GetParam();
    const Circuit c = circuits::makeBenchmark(family, 9);

    setSimThreads(1);
    const StateVector want = simulateReference(c);

    setSimThreads(threads);
    const StateVector got = simulateReference(c);
    setSimThreads(1);

    // Threaded and sequential orders touch disjoint work items, so
    // the results are bit-identical, not merely close.
    for (Index i = 0; i < want.size(); ++i)
        ASSERT_EQ(want[i], got[i]) << family << " i=" << i;
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndThreads, ThreadedApply,
    ::testing::Combine(
        ::testing::Values("hchain", "qft", "iqp", "gs", "rqc"),
        ::testing::Values(2, 4, 7)));

} // namespace
} // namespace qgpu
