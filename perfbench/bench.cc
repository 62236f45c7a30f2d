#include "bench.h"

#include <fcntl.h>
#include <unistd.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace fcb {

double
percentile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const auto n = static_cast<double>(sorted.size());
    std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
    rank = std::clamp<std::size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
}

Tail
tailOf(const std::vector<double> &sorted, double pct)
{
    static constexpr double kFallbacks[] = {99.0, 95.0, 90.0, 75.0};
    const auto beyond = [&](double p) {
        const auto rank = static_cast<std::size_t>(
            std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
        return sorted.size() - std::min(rank, sorted.size());
    };
    Tail tail;
    tail.samples = sorted.size();
    tail.pct = 50.0;
    if (beyond(pct) >= 10) {
        tail.pct = pct;
    } else {
        for (double p : kFallbacks)
            if (p < pct && beyond(p) >= 10) {
                tail.pct = p;
                break;
            }
    }
    tail.value = percentile(sorted, tail.pct / 100.0);
    return tail;
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

std::vector<double>
sorted(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return values;
}

namespace {

/** Word-at-a-time multiply-rotate hash: fast enough to digest a
 *  12 MB gather tensor in a few milliseconds. */
class Hasher
{
  public:
    void
    mix(std::uint64_t w)
    {
        h_ ^= w * 0x9E3779B97F4A7C15ull;
        h_ = ((h_ << 27) | (h_ >> 37)) * 0xBF58476D1CE4E5B9ull;
    }

    void
    bytes(const void *data, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(data);
        std::size_t i = 0;
        for (; i + 8 <= n; i += 8) {
            std::uint64_t w;
            std::memcpy(&w, b + i, 8);
            mix(w);
        }
        std::uint64_t tail = 0;
        std::memcpy(&tail, b + i, n - i);
        mix(tail ^ (static_cast<std::uint64_t>(n) << 56));
    }

    template <typename T>
    void
    vec(const std::vector<T> &v)
    {
        mix(v.size());
        bytes(v.data(), v.size() * sizeof(T));
    }

    void
    stats(const fc::ops::OpStats &s)
    {
        mix(s.distance_computations);
        mix(s.points_visited);
        mix(s.iterations);
        mix(s.skipped);
        mix(s.bytes_gathered);
    }

    void
    stats(const fc::part::PartitionStats &s)
    {
        mix(s.elements_traversed);
        mix(s.traversal_passes);
        mix(s.num_sorts);
        mix(s.sort_compares);
        mix(s.degenerate_retries);
        mix(s.num_splits);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0x243F6A8885A308D3ull;
};

} // namespace

std::uint64_t
digestResult(const fc::BatchResult &r)
{
    Hasher h;
    h.vec(r.sampled.indices);
    h.vec(r.sampled.positions);
    h.vec(r.sampled.leaf_offsets);
    h.stats(r.sampled.stats);
    h.mix(r.grouped.num_centers);
    h.mix(r.grouped.k);
    h.vec(r.grouped.indices);
    h.vec(r.grouped.counts);
    h.stats(r.grouped.stats);
    h.mix(r.gathered.num_centers);
    h.mix(r.gathered.k);
    h.mix(r.gathered.channels);
    h.vec(r.gathered.values);
    h.stats(r.gathered.stats);
    h.stats(r.partition_stats);
    h.mix(r.num_blocks);
    h.mix(r.inference.has_value());
    if (r.inference) {
        const fc::nn::InferenceResult &inf = *r.inference;
        h.mix(inf.embedding.rows());
        h.mix(inf.embedding.cols());
        h.vec(inf.embedding.data());
        h.mix(inf.point_features.rows());
        h.mix(inf.point_features.cols());
        h.vec(inf.point_features.data());
        h.stats(inf.op_stats);
        h.stats(inf.partition_stats);
        h.mix(inf.total_macs);
        h.mix(inf.sa_mlp_rows);
    }
    return h.value();
}

double
residentMb()
{
    char buf[128];
    const int fd = ::open("/proc/self/statm", O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return 0.0;
    const ssize_t n = ::read(fd, buf, sizeof buf - 1);
    ::close(fd);
    if (n <= 0)
        return 0.0;
    buf[n] = '\0';
    unsigned long long size = 0, resident = 0;
    if (std::sscanf(buf, "%llu %llu", &size, &resident) != 2)
        return 0.0;
    const double page = static_cast<double>(::sysconf(_SC_PAGESIZE));
    return static_cast<double>(resident) * page / (1024.0 * 1024.0);
}

void
trimHeap()
{
#ifdef __GLIBC__
    ::malloc_trim(0);
#endif
}

std::string
formatDouble(double value)
{
    if (!std::isfinite(value))
        value = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

} // namespace fcb
