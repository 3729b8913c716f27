/**
 * @file
 * Shared pieces of the qgpu_perfbench driver: command-line options,
 * the result report, the in-memory span tracer, process resource
 * sampling, and the per-workload interface.
 *
 * The driver measures the simulator from outside: every number comes
 * from timing calls into the library's public functions or from the
 * counters those functions already return. Nothing under src/ is
 * instrumented.
 */

#ifndef QGPU_PERFBENCH_BENCH_HH
#define QGPU_PERFBENCH_BENCH_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "qc/circuit.hh"
#include "statevec/state_vector.hh"

namespace perfbench
{

/** Host threads a workload may use: the pool's workers plus the
 *  calling thread. */
inline constexpr int kThreads = 4;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 15.0;
    bool trace = false;
    /** Scaled-down inputs for the self-test (same code paths). */
    bool tiny = false;
    /** Flip one bit of one result before its check (self-test of the
     *  correctness gate). */
    bool corrupt = false;
    /** Where the traced run writes its spans ("" = nowhere). */
    std::string spansOut;
};

/** The noise model of every shot job (shots12 and the service leg). */
inline constexpr const char *kNoiseSpec =
    "pauli1:0.01,damp:0.01,readout:0.01";

/** Seconds on the monotonic clock. */
double now();

/** Deterministic per-purpose seed derived from the workload seed. */
std::uint64_t deriveSeed(std::uint64_t seed, const std::string &purpose);

/** Nearest-rank percentile of @p values (q in [0, 1]); 0 if empty. */
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

/** A seeded circuit generator (family, qubits and depth bound). */
using Generator = std::function<qgpu::Circuit(std::uint64_t seed)>;

/** The size of a circuit that seeds must keep; empty = gate count. */
using Signature = std::function<std::uint64_t(const qgpu::Circuit &)>;

/**
 * The first seed derived from @p seed for which @p generate yields a
 * circuit of the same @p signature as for a fixed reference seed.
 * The workload seed then changes a circuit's content (graph, secret,
 * gate choice, angles) but not its size, so runs on different seeds
 * do equal work.
 */
std::uint64_t matchedSeed(const Generator &generate, std::uint64_t seed,
                          const Signature &signature = {});

/** Registry family circuit (default depth) at a size-matched seed. */
qgpu::Circuit makeCircuit(const std::string &family, int qubits,
                          std::uint64_t seed);

/** checksumAmps of a whole state: the bit-exact fingerprint. */
std::uint64_t fingerprint(const qgpu::StateVector &state);

/** 2^qubits x gates: the amplitude-gate work a circuit is credited. */
double ampGates(const qgpu::Circuit &circuit);

/**
 * One timed operation: one run or one runBatched call. Primary ops
 * feed the latency and throughput metrics; every op's modeled time
 * feeds virtual_s.
 */
struct Op
{
    double wall = 0.0;
    double work = 0.0;  ///< credited amplitude-gates
    double shots = 0.0; ///< trajectories delivered (ideal run = 1)
    double vtime = 0.0; ///< modeled device seconds the op reported
    bool primary = true;
};

/** What one pass of the timed phase produced: op i of the pass at
 *  index i. The last pass of a timed phase may be cut short. */
struct Measured
{
    std::vector<Op> ops;
};

struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Metrics, op counts and correctness verdicts of one process. */
class Report
{
  public:
    explicit Report(bool corrupt) : tamper_(corrupt) {}

    void set(const std::string &name, double value,
             const std::string &unit);
    bool has(const std::string &name) const;

    /** Count one attempted op; @p ok false counts it failed and
     *  prints @p what to stderr. Returns @p ok. */
    bool op(bool ok, const std::string &what);

    /** True exactly once when the self-test asked for a corrupted
     *  result: the caller then damages the result it checks next. */
    bool tamper();

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::map<std::string, Metric> &metrics() const
    {
        return metrics_;
    }

  private:
    std::map<std::string, Metric> metrics_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    bool tamper_ = false;
};

/**
 * In-memory span recorder. A span has a name, start and end, the
 * span open when it began (its parent), and the op it belongs to.
 * Disabled tracers still time their scopes (callers need the
 * duration) but keep nothing.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    struct Span
    {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        int parent = -1;
        std::uint64_t op = 0;
    };

    void setEnabled(bool enabled) { enabled_ = enabled; }
    int open(const std::string &name, std::uint64_t op);
    void close(int id);

    /** Summed self time (duration minus the part its child spans
     *  cover) of every span called @p name. */
    double selfSeconds(const std::string &name) const;

    /** Write every span as JSON; false on I/O error. */
    bool write(const std::string &path) const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> openStack_;
};

/** RAII span; seconds() is the wall time of the scope so far. */
class Scope
{
  public:
    Scope(Tracer &tracer, const std::string &name,
          std::uint64_t op = 0);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    double seconds() const { return now() - start_; }

  private:
    Tracer &tracer_;
    int id_;
    double start_;
};

/** getrusage(RUSAGE_SELF) snapshot. */
struct Usage
{
    double userS = 0.0;
    double sysS = 0.0;
    double minflt = 0.0;
    double maxRssMb = 0.0;
};
Usage usage();

/** `syscr` from /proc/self/io (read syscalls so far); -1 if absent. */
double readSyscalls();

/** Wall time and read syscalls per call of an empty 4-thread
 *  parallelFor, measured over @p calls calls. */
struct PoolProbe
{
    double dispatchUs = 0.0;
    double syscrPerCall = 0.0;
};
PoolProbe probePool(int calls);

/**
 * Work counts of the traced replays, summed over the circuits and
 * states a workload replays. Layer seconds are not kept here: they
 * are the self times of the replay spans, read from the tracer.
 */
struct LayerTotals
{
    double sweeps = 0.0, gates = 0.0;
    double kernelWork = 0.0;  ///< amplitude-gates replayed
    double kernelBytes = 0.0; ///< computed: live bytes read + written
    double measureCalls = 0.0;
    double rawBytes = 0.0, codedBytes = 0.0;
    double checksumBytes = 0.0;
};

/**
 * Replay the planning and kernel layers the qgpu engine runs for
 * @p circuit: reorderCircuit (forward-looking), fuseGates (timed
 * only; the paper versions do not fuse), scheduleSweeps under the
 * pruning mask, then applySweepChunked sweep by sweep at 1 and at
 * kThreads threads with the same zero-chunk predicate, at the
 * engine's base chunk geometry. Returns the seconds of the layers
 * a run executes (reorder + schedule + kernels at kThreads) and
 * stores the replayed final state in @p final_state.
 */
double replayPlan(Tracer &tracer, const qgpu::Circuit &circuit,
                  std::uint64_t op, LayerTotals &totals,
                  qgpu::StateVector &final_state);

/**
 * Time the data layers on a final state: sampleOutcome, GFC
 * compressBatch / decompressBatch over the engine's chunks, and
 * checksumAmps. Returns false if the codec round trip is not
 * bit-exact.
 */
bool probeData(Tracer &tracer, const qgpu::StateVector &state,
               std::uint64_t op, std::uint64_t seed,
               LayerTotals &totals);

/** Set every per-layer metric the replays above cover. */
void emitLayers(Report &report, const Tracer &tracer,
                const LayerTotals &totals);

/** Chunk-offset bits of the engines' default ~256-chunk geometry. */
int engineChunkBits(int num_qubits);

/**
 * One workload: inputs made in setup() from the seed, a fixed op set
 * timed op by op with runOp(), per-layer replays in layers() (traced
 * runs only).
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Generate inputs, run the reference checks, warm up. */
    virtual void setup(Report &report) = 0;

    /** Ops in one pass over the op set. */
    virtual std::size_t opCount() const = 0;

    /** Run op @p i of a pass, check its result and append exactly
     *  one Op to @p out. Ops run in index order, pass after pass. */
    virtual void runOp(std::size_t i, Report &report, Tracer &tracer,
                       Measured &out) = 0;

    /** Traced run: time each layer on the same inputs and set the
     *  per-layer metrics. @p pass_ops are the ops of the traced
     *  pass, in op order. */
    virtual void layers(Report &report, Tracer &tracer,
                        const std::vector<Op> &pass_ops) = 0;
};

std::unique_ptr<Workload> makeDense22(const Options &options);
std::unique_ptr<Workload> makeShots12(const Options &options);
std::unique_ptr<Workload> makeStorage16(const Options &options);

/**
 * Replay a seeded open-loop trace into JobService and set the
 * service's per-layer metrics (qc.canonical_s, service.*); part of
 * shots12's traced run (service_leg.cc).
 */
void serviceLayers(Report &report, Tracer &tracer, std::uint64_t seed,
                   bool tiny);

} // namespace perfbench

#endif // QGPU_PERFBENCH_BENCH_HH
