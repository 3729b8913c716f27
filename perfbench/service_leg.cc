/**
 * @file
 * The job-service leg of shots12's traced run: an open-loop replay of
 * a seeded multi-tenant trace into JobService (4 host threads, 2
 * active jobs). Circuits have 10-14 qubits, one unique request in ten
 * is a noisy shot job, and 40% of the requests repeat an earlier one.
 * It is the only leg that exercises canonicalization, the result
 * cache, single-flight and queueing. It was a workload of its own
 * until its sub-millisecond median latency proved too noisy to bound
 * (see README.md); its layers are measured here.
 *
 * 1000 jobs are offered at 200 jobs/s with exponential gaps, each
 * timed from when it was due, so a stalled generator shows as
 * latency.
 */

#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.hh"
#include "checks.hh"
#include "circuits/circuits.hh"
#include "common/rng.hh"
#include "qc/canonical.hh"
#include "service/scheduler.hh"

using namespace qgpu;
using namespace qgpu::service;

namespace perfbench
{
namespace
{

constexpr int kNominalJobs = 1000;
constexpr double kNominalRate = 200.0; ///< offered jobs/s
/** Latency limit of every nominal job. */
constexpr double kLatencyLimitS = 0.5;
/** Warm-up jobs, offered far faster than the service drains them. */
constexpr int kWarmupJobs = 200;
constexpr double kOverloadRate = 5000.0;
constexpr std::uint64_t kNoisyShots = 4;

/**
 * Deals (family, qubits) cells from a seeded deck that holds every
 * cell once and is reshuffled when empty, so any run of draws has the
 * same mix of job sizes whatever the seed.
 */
class CellDeck
{
  public:
    CellDeck(int min_qubits, int max_qubits)
    {
        for (const std::string &family : circuits::benchmarkNames())
            for (int q = min_qubits; q <= max_qubits; ++q)
                cells_.emplace_back(family, q);
        next_ = cells_.size();
    }

    const std::pair<std::string, int> &
    deal(Rng &rng)
    {
        if (next_ == cells_.size()) {
            for (std::size_t i = cells_.size(); i > 1; --i)
                std::swap(cells_[i - 1], cells_[rng.nextBelow(i)]);
            next_ = 0;
        }
        return cells_[next_++];
    }

  private:
    std::vector<std::pair<std::string, int>> cells_;
    std::size_t next_;
};

/**
 * A seeded open-loop trace at @p rate jobs/s (exponential gaps).
 * Two jobs in five repeat a uniformly chosen earlier unique request
 * with a fresh sampling seed; every tenth unique request is a noisy
 * shot job. Ideal and noisy uniques draw their sizes from separate
 * decks.
 */
std::vector<JobRequest>
makeTrace(std::uint64_t seed, int jobs, double rate, int min_qubits,
          int max_qubits)
{
    Rng rng(seed);
    // Shot jobs cost their shot count in trajectories, so they stay
    // at the low end of the qubit range.
    CellDeck ideal(min_qubits, max_qubits),
        noisy(min_qubits, min_qubits + 2);
    std::vector<JobRequest> trace;
    std::vector<std::size_t> uniques;
    double arrival_ms = 0.0;
    for (int i = 0; i < jobs; ++i) {
        arrival_ms += -1e3 / rate * std::log(1.0 - rng.nextDouble());
        JobRequest r;
        if (i % 5 == 1 || i % 5 == 3) {
            r = trace[uniques[rng.nextBelow(uniques.size())]];
        } else {
            const bool is_noisy = uniques.size() % 10 == 9;
            const auto &[family, qubits] =
                (is_noisy ? noisy : ideal).deal(rng);
            r.circuit.family = family;
            r.circuit.qubits = qubits;
            r.circuit.seed = matchedSeed(
                [&](std::uint64_t s) {
                    return circuits::makeBenchmark(family, qubits, s);
                },
                rng.next());
            if (is_noisy) {
                r.noiseSpec = kNoiseSpec;
                r.shots = kNoisyShots;
                r.shotSeed = rng.next();
            }
            uniques.push_back(trace.size());
        }
        r.tenant = "t" + std::to_string(i % 4);
        r.seed = rng.next() >> 8;
        r.arrivalMs = arrival_ms;
        trace.push_back(std::move(r));
    }
    return trace;
}

struct Replay
{
    std::vector<JobResult> results;
    std::vector<double> latency; ///< from due time to done, seconds
    std::vector<double> lag;     ///< submission lateness, seconds
};

Replay
replay(const std::vector<JobRequest> &trace, Tracer &tracer,
       std::uint64_t first_op)
{
    ServiceConfig config;
    config.hostThreads = kThreads;
    config.maxActiveJobs = 2;
    config.maxQueueDepth = 1 << 20; // open loop: never reject
    Replay out;
    std::vector<std::uint64_t> ids(trace.size());
    out.lag.resize(trace.size());
    {
        JobService service(config);
        const auto origin = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < trace.size(); ++i) {
            const auto due =
                origin + std::chrono::duration_cast<
                             std::chrono::steady_clock::duration>(
                             std::chrono::duration<double>(
                                 trace[i].arrivalMs * 1e-3));
            std::this_thread::sleep_until(due);
            out.lag[i] = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - due)
                             .count();
            Scope span(tracer, "service.submit", first_op + i);
            ids[i] = service.submit(trace[i]);
        }
        Scope span(tracer, "service.wait", first_op);
        for (std::size_t i = 0; i < trace.size(); ++i) {
            out.results.push_back(service.wait(ids[i]));
            out.latency.push_back(out.lag[i] +
                                  out.results[i].latencySeconds());
        }
    }
    return out;
}

bool
ranEngine(const JobResult &r)
{
    return !r.cacheHit && !r.coalesced;
}

/**
 * Every job finished Done, ideal states have norm 1, and every
 * job returns its key's first result (norm, modeled time and
 * noisy counts, bit for bit). Nominal jobs must also meet the
 * latency limit.
 */
void
check(Report &report, const std::vector<JobRequest> &trace,
      const Replay &run, bool nominal)
{
    std::map<std::uint64_t, const JobResult *> first;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        JobResult r = run.results[i];
        if (report.tamper())
            r.norm += 0.5;
        const std::string what = "job " + std::to_string(i) + " (" +
                                 trace[i].circuit.family + ")";
        bool ok = r.status == JobStatus::Done;
        ok = ok && std::abs(r.norm - 1.0) <= kTolerance;
        const auto [it, inserted] =
            first.emplace(r.key, &run.results[i]);
        if (!inserted) {
            const JobResult &f = *it->second;
            ok = ok &&
                 std::memcmp(&f.norm, &r.norm, sizeof r.norm) == 0 &&
                 f.totalVTime == r.totalVTime && f.counts == r.counts;
        }
        if (nominal)
            ok = ok && run.latency[i] <= kLatencyLimitS;
        report.op(ok, what + " correct" +
                          (nominal ? " and within the latency limit"
                                   : ""));
    }
}

} // namespace

void
serviceLayers(Report &report, Tracer &tracer, std::uint64_t seed,
              bool tiny)
{
    const int min_qubits = tiny ? 6 : 10;
    const int max_qubits = tiny ? 8 : 14;
    const std::vector<JobRequest> nominal =
        makeTrace(deriveSeed(seed, "nominal"), tiny ? 60 : kNominalJobs,
                  kNominalRate, min_qubits, max_qubits);

    // Warm-up: the first jobs a process serves run measurably slower
    // (allocator and pool state), so serve some first.
    std::vector<JobRequest> warm =
        makeTrace(deriveSeed(seed, "warm-up"), kWarmupJobs,
                  kOverloadRate, min_qubits, max_qubits);
    Tracer untraced(false);
    check(report, warm, replay(warm, untraced, 0), false);

    const Replay run = replay(nominal, tracer, 0);
    check(report, nominal, run, true);

    std::map<std::uint64_t, const JobRequest *> unique;
    for (std::size_t i = 0; i < nominal.size(); ++i)
        unique.emplace(run.results[i].key, &nominal[i]);
    for (const auto &[key, request] : unique) {
        const Circuit circuit = request->circuit.build();
        Scope span(tracer, "qc.canonical", key);
        canonicalCircuit(circuit);
    }
    report.set("qc.canonical_s", tracer.selfSeconds("qc.canonical"), "s");

    std::vector<double> wait, exec;
    double hits = 0.0, coalesced = 0.0;
    for (const JobResult &r : run.results) {
        hits += r.cacheHit ? 1.0 : 0.0;
        coalesced += r.coalesced ? 1.0 : 0.0;
        if (ranEngine(r)) {
            wait.push_back(r.startSeconds - r.submitSeconds);
            exec.push_back(r.doneSeconds - r.startSeconds);
        }
    }
    const double jobs = static_cast<double>(nominal.size());
    report.set("service.queue_wait_p99_ms", 1e3 * percentile(wait, 0.99),
               "ms");
    report.set("service.exec_p50_ms", 1e3 * median(exec), "ms");
    report.set("service.cache_hit_frac", hits / jobs, "ratio");
    report.set("service.coalesced_frac", coalesced / jobs, "ratio");
    report.set("service.gen_lag_ms", 1e3 * percentile(run.lag, 0.99),
               "ms");
}

} // namespace perfbench
