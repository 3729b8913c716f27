#include "bench.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sys/resource.h>

#include "circuits/circuits.hh"
#include "common/rng.hh"
#include "fault/checksum.hh"
#include "qc/canonical.hh"

namespace perfbench
{

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint64_t
deriveSeed(std::uint64_t seed, const std::string &purpose)
{
    qgpu::HashStream h(seed);
    for (const char c : purpose)
        h.u64(static_cast<std::uint64_t>(c));
    // A zero seed selects a family's built-in default; avoid it.
    return h.digest() | 1;
}

std::uint64_t
matchedSeed(const Generator &generate, std::uint64_t seed,
            const Signature &signature)
{
    const auto size = [&](const qgpu::Circuit &c) -> std::uint64_t {
        return signature ? signature(c) : c.numGates();
    };
    const std::uint64_t want = size(generate(1));
    std::uint64_t candidate = deriveSeed(seed, "circuit");
    // Every generator's size distribution puts the reference size
    // well within reach; the bound only guards against a change.
    for (int attempt = 1; attempt < 10000; ++attempt) {
        if (size(generate(candidate)) == want)
            return candidate;
        candidate = deriveSeed(candidate, "circuit");
    }
    return candidate;
}

qgpu::Circuit
makeCircuit(const std::string &family, int qubits, std::uint64_t seed)
{
    const Generator generate = [&](std::uint64_t s) {
        return qgpu::circuits::makeBenchmark(family, qubits, s);
    };
    return generate(matchedSeed(generate, deriveSeed(seed, family)));
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::uint64_t
fingerprint(const qgpu::StateVector &state)
{
    return qgpu::checksumAmps(state.amplitudes());
}

double
ampGates(const qgpu::Circuit &circuit)
{
    return std::ldexp(static_cast<double>(circuit.numGates()),
                      circuit.numQubits());
}

void
Report::set(const std::string &name, double value,
            const std::string &unit)
{
    metrics_[name] = Metric{value, unit};
}

bool
Report::has(const std::string &name) const
{
    return metrics_.count(name) != 0;
}

bool
Report::op(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::cerr << "perfbench: FAILED " << what << "\n";
    }
    return ok;
}

bool
Report::tamper()
{
    const bool fire = tamper_;
    tamper_ = false;
    return fire;
}

int
Tracer::open(const std::string &name, std::uint64_t op)
{
    if (!enabled_)
        return -1;
    Span span;
    span.name = name;
    span.parent = openStack_.empty() ? -1 : openStack_.back();
    span.op = op;
    span.start = now();
    spans_.push_back(std::move(span));
    const int id = static_cast<int>(spans_.size()) - 1;
    openStack_.push_back(id);
    return id;
}

void
Tracer::close(int id)
{
    if (id < 0)
        return;
    spans_[id].end = now();
    if (!openStack_.empty() && openStack_.back() == id)
        openStack_.pop_back();
}

double
Tracer::selfSeconds(const std::string &name) const
{
    // Children of one span never overlap (one thread records), so
    // the covered part is the sum of their clipped durations.
    std::vector<double> covered(spans_.size(), 0.0);
    for (const Span &s : spans_) {
        if (s.parent < 0)
            continue;
        const Span &p = spans_[s.parent];
        covered[s.parent] += std::max(
            0.0, std::min(s.end, p.end) - std::max(s.start, p.start));
    }
    double total = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].name == name)
            total += spans_[i].end - spans_[i].start - covered[i];
    }
    return total;
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    const double origin = spans_.empty() ? 0.0 : spans_.front().start;
    out.precision(9);
    out << "{\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << (i ? ",\n" : "\n") << "{\"id\": " << i
            << ", \"name\": \"" << s.name
            << "\", \"start_s\": " << s.start - origin
            << ", \"end_s\": " << s.end - origin
            << ", \"parent\": " << s.parent << ", \"op\": " << s.op
            << "}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

Scope::Scope(Tracer &tracer, const std::string &name, std::uint64_t op)
    : tracer_(tracer), id_(tracer.open(name, op)), start_(now())
{
}

Scope::~Scope()
{
    tracer_.close(id_);
}

Usage
usage()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               1e-6 * static_cast<double>(tv.tv_usec);
    };
    Usage u;
    u.userS = secs(ru.ru_utime);
    u.sysS = secs(ru.ru_stime);
    u.minflt = static_cast<double>(ru.ru_minflt);
    u.maxRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB
    return u;
}

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

} // namespace perfbench
