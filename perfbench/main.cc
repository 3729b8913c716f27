/**
 * @file
 * qgpu_perfbench - runs ONE benchmark workload in this process and
 * prints its result as a JSON object on the last stdout line.
 *
 *   qgpu_perfbench --workload <dense22|shots12|storage16>
 *                  [--seed n] [--seconds s] [--trace 0|1] [--tiny]
 *                  [--corrupt] [--spans-out path]
 *
 * Phases: set-up (five times, median reported as setup_s), then the
 * timed phase: one whole pass over the workload's op set, then its
 * ops in turn, as long as the next op's last time still fits in
 * --seconds. With --trace 1 the timed phase is one untraced and one
 * traced pass, followed by the pool probe and the per-layer replays.
 * Exit status is 1 when any op failed or any correctness check did
 * not hold. perfbench/run.py is the benchmark command; it builds this
 * binary and runs one fresh process per workload.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "bench.hh"
#include "common/parallel.hh"
#include "common/thread_pool.hh"

using namespace perfbench;

namespace
{

/** Every per-layer metric with its unit. A workload that does not
 *  exercise a layer leaves it unset, and it is reported as 0. */
const std::pair<const char *, const char *> kLayerMetrics[] = {
    {"common.pool_dispatch_us", "us"},
    {"common.pool_syscr_per_call", "1/call"},
    {"proc.user_s", "s"},
    {"proc.sys_s", "s"},
    {"proc.minflt", "count"},
    {"circuits.build_s", "s"},
    {"reorder.s", "s"},
    {"qc.fuse_s", "s"},
    {"sched.sweep_s", "s"},
    {"sched.sweeps", "count"},
    {"sched.gates_per_sweep", "gates"},
    {"statevec.kernel_s_1t", "s"},
    {"statevec.kernel_s_4t", "s"},
    {"statevec.kernel_scaling", "x"},
    {"statevec.kernel_gamps", "Gamp/s"},
    {"statevec.bytes_per_amp_gate", "B_computed"},
    {"statevec.measure_s", "s"},
    {"statevec.storage_evictions", "count"},
    {"statevec.storage_hit_frac", "ratio"},
    {"statevec.storage_zero_fill_frac", "ratio"},
    {"statevec.storage_peak_host_mb", "MiB"},
    {"compress.encode_gbps", "GB/s"},
    {"compress.decode_gbps", "GB/s"},
    {"compress.ratio", "x"},
    {"fault.checksum_gbps", "GB/s"},
    {"prune.pruned_frac", "ratio"},
    {"sim.h2d_bytes", "B"},
    {"sim.d2h_bytes", "B"},
    {"sim.h2d_s", "model_s"},
    {"sim.d2h_s", "model_s"},
    {"sim.device_compute_s", "model_s"},
    {"sched.exchange_bytes", "B"},
    {"sched.exchange_phases", "count"},
    {"engine.driver_s", "s"},
    {"noise.sample_s", "s"},
    {"noise.events", "count"},
    {"engine.sweep_replays", "count"},
    {"engine.sweep_splits", "count"},
    {"qc.canonical_s", "s"},
    {"service.queue_wait_p99_ms", "ms"},
    {"service.exec_p50_ms", "ms"},
    {"service.cache_hit_frac", "ratio"},
    {"service.coalesced_frac", "ratio"},
    {"service.gen_lag_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
};

/** Set-ups per process; setup_s is their median. A set-up takes
 *  0.2-0.5 s, and single ones vary by about half. */
constexpr int kSetups = 5;

[[noreturn]] void
usageError(const std::string &why)
{
    std::cerr << "qgpu_perfbench: " << why
              << "\nusage: qgpu_perfbench --workload name [--seed n] "
                 "[--seconds s] [--trace 0|1] [--tiny] [--corrupt] "
                 "[--spans-out path]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usageError("missing value for " + flag);
            return argv[++i];
        };
        if (flag == "--workload") {
            o.workload = value();
        } else if (flag == "--seed") {
            o.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            o.seconds = std::atof(value().c_str());
        } else if (flag == "--trace") {
            o.trace = value() != "0";
        } else if (flag == "--tiny") {
            o.tiny = true;
        } else if (flag == "--corrupt") {
            o.corrupt = true;
        } else if (flag == "--spans-out") {
            o.spansOut = value();
        } else {
            usageError("unknown flag '" + flag + "'");
        }
    }
    if (!(o.seconds > 0.0))
        usageError("--seconds must be positive");
    return o;
}

std::unique_ptr<Workload>
makeWorkload(const Options &o)
{
    if (o.workload == "dense22")
        return makeDense22(o);
    if (o.workload == "shots12")
        return makeShots12(o);
    if (o.workload == "storage16")
        return makeStorage16(o);
    usageError("unknown workload '" + o.workload + "'");
}

/**
 * The end-to-end metrics of the timed phase. Op i of every pass does
 * the same work, so each op's wall time is the median over its
 * passes, and a burst of host noise moves it little. The metrics are
 * those of a pass made of these median times. Returns how many
 * passes of that length the timed phase ran (the cut-short last pass
 * counts in part), the divisor of the per-pass CPU metrics.
 */
double
emitEndToEnd(Report &report, const std::vector<Measured> &passes)
{
    const std::vector<Op> &ops = passes.front().ops;
    std::vector<double> typical(ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
        std::vector<double> walls;
        for (const Measured &m : passes) {
            if (i < m.ops.size())
                walls.push_back(m.ops[i].wall);
        }
        typical[i] = median(walls);
    }

    std::vector<double> walls;
    double pass_wall = 0.0, wall = 0.0, work = 0.0, shots = 0.0,
           vtime = 0.0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        pass_wall += typical[i];
        vtime += ops[i].vtime;
        if (!ops[i].primary)
            continue;
        walls.push_back(typical[i]);
        wall += typical[i];
        work += ops[i].work;
        shots += ops[i].shots;
    }
    const auto per = [](double a, double b) {
        return b > 0.0 ? a / b : 0.0;
    };
    report.set("run_p50_s", median(walls), "s");
    report.set("gamps_per_s", per(work, wall) * 1e-9, "Gamp/s");
    report.set("shots_per_s", per(shots, wall), "shots/s");
    report.set("virtual_s", vtime, "model_s");

    double ran = 0.0;
    for (const Measured &m : passes) {
        for (std::size_t i = 0; i < m.ops.size(); ++i)
            ran += typical[i];
    }
    return per(ran, pass_wall);
}

void
printJson(const Options &o, const Report &report, int passes)
{
    const auto num = [](double v) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
        return std::string(buf);
    };
    std::string out = "{\"workload\": \"" + o.workload +
                      "\", \"seed\": " + std::to_string(o.seed) +
                      ", \"trace\": " + (o.trace ? "1" : "0") +
                      ", \"correct\": " +
                      (report.failed() == 0 ? "true" : "false") +
                      ", \"attempted\": " +
                      std::to_string(report.attempted()) +
                      ", \"failed\": " + std::to_string(report.failed()) +
                      ", \"passes\": " + std::to_string(passes) +
                      ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, metric] : report.metrics()) {
        out += std::string(first ? "" : ", ") + "\"" + name +
               "\": {\"value\": " + num(metric.value) +
               ", \"unit\": \"" + metric.unit + "\"}";
        first = false;
    }
    out += "}}";
    std::cout << out << std::endl;
}

} // namespace

int
main(int argc, char **argv)
{
    const double process_start = now();
    const Options options = parseArgs(argc, argv);
    // The pool gets kThreads workers (the service leg, the probe, the
    // engines' storage prefetch and dense22's kernels use them).
    // Data-parallel loops run at the library's default of one thread
    // unless a workload asks for more: with every loop fanned out,
    // each dispatch waits on worker wake-ups, and host contention
    // then swung op times by 2x between runs of shots12 and
    // storage16.
    qgpu::setSimThreads(1);
    qgpu::ThreadPool::global().ensureWorkers(kThreads - 1);

    Report report(options.corrupt);
    Tracer tracer(options.trace);

    // Set-up runs kSetups times; the last instance is measured. The
    // first set-up time counts from process start.
    std::vector<double> setups;
    std::unique_ptr<Workload> workload;
    for (int rep = 0; rep < kSetups; ++rep) {
        const double start = rep == 0 ? process_start : now();
        workload = makeWorkload(options);
        workload->setup(report);
        setups.push_back(now() - start);
    }
    report.set("setup_s", median(setups), "s");

    const Usage before = usage();
    const double timed_start = now();
    const std::size_t op_count = workload->opCount();
    std::vector<Measured> passes;
    std::vector<double> pass_walls;
    const auto run_pass = [&] {
        const double start = now();
        Measured &out = passes.emplace_back();
        for (std::size_t i = 0; i < op_count; ++i)
            workload->runOp(i, report, tracer, out);
        pass_walls.push_back(now() - start);
    };
    if (options.trace) {
        // One untraced pass, then one traced pass on the same inputs:
        // their wall times give trace.overhead_frac, and the traced
        // pass's ops anchor the layer replays.
        tracer.setEnabled(false);
        run_pass();
        tracer.setEnabled(true);
        run_pass();
    } else {
        // Op by op rather than pass by pass: a pass of the slow
        // workloads takes most of --seconds, and ops cut short a
        // pass where whole passes would stop early.
        for (std::size_t n = 0;; ++n) {
            const std::size_t i = n % op_count;
            if (n >= op_count) {
                const double last = passes[n / op_count - 1].ops[i].wall;
                if (now() - timed_start + last > options.seconds)
                    break;
            }
            if (i == 0)
                passes.emplace_back();
            workload->runOp(i, report, tracer, passes.back());
        }
    }
    const Usage after = usage();
    const int pass_count = static_cast<int>(passes.size());

    const double pass_equiv = emitEndToEnd(report, passes);
    report.set("cpu_s",
               (after.userS - before.userS + after.sysS - before.sysS) /
                   pass_equiv,
               "s");
    report.set("peak_rss_mb", after.maxRssMb, "MiB");

    if (options.trace) {
        const PoolProbe probe = probePool(options.tiny ? 1000 : 10000);
        report.set("common.pool_dispatch_us", probe.dispatchUs, "us");
        report.set("common.pool_syscr_per_call", probe.syscrPerCall,
                   "1/call");
        report.set("proc.user_s",
                   (after.userS - before.userS) / pass_equiv, "s");
        report.set("proc.sys_s", (after.sysS - before.sysS) / pass_equiv,
                   "s");
        report.set("proc.minflt",
                   (after.minflt - before.minflt) / pass_equiv, "count");
        report.set("trace.overhead_frac",
                   pass_walls[1] / pass_walls[0] - 1.0, "ratio");
        workload->layers(report, tracer, passes.back().ops);
        for (const auto &[name, unit] : kLayerMetrics) {
            if (!report.has(name))
                report.set(name, 0.0, unit);
        }
        if (!options.spansOut.empty() && !tracer.write(options.spansOut))
            report.op(false, "writing spans to " + options.spansOut);
    }
    report.set("ok_frac",
               1.0 - static_cast<double>(report.failed()) /
                         static_cast<double>(report.attempted()),
               "ratio");

    printJson(options, report, pass_count);
    return report.failed() == 0 ? 0 : 1;
}
