/**
 * @file
 * Multi-bank global-buffer SRAM model.
 *
 * The global buffer (274 KB in PointAcc / FractalCloud, 1622.8 KB in
 * Crescent) is split into banks with one port each. Streamed accesses
 * interleave perfectly across banks; random accesses collide — the
 * model charges an expected conflict factor that grows with the
 * number of concurrent requesters, reproducing the bank-conflict
 * behaviour the paper attributes to unpartitioned point clouds
 * (§IV-A: "multiple compute units access different addresses within
 * the same memory bank").
 */

#ifndef FC_SIM_SRAM_H
#define FC_SIM_SRAM_H

#include <cstdint>

#include "sim/cycles.h"

namespace fc::sim {

/** Access pattern classes. */
enum class AccessPattern
{
    Streamed, ///< sequential, bank-interleaved
    Random,   ///< data-dependent scatter/gather
};

struct SramConfig
{
    std::uint64_t capacity_bytes = 274 * 1024;
    std::uint32_t num_banks = 16;
    std::uint32_t bytes_per_port = 16; ///< per bank per cycle
};

class Sram
{
  public:
    explicit Sram(SramConfig config) : config_(config) {}

    const SramConfig &config() const { return config_; }

    /**
     * Cycles to move @p bytes with @p requesters concurrent units.
     *
     * Streamed: all banks cooperate at full port width.
     * Random: each access touches a random bank; with R requesters
     * over B banks the expected serialization factor is the expected
     * maximum bin load, approximated as 1 + (R - 1) / B.
     */
    Cycles cycles(std::uint64_t bytes, AccessPattern pattern,
                  std::uint32_t requesters = 1) const;

    /** Record an access into the running totals. */
    void record(std::uint64_t bytes, AccessPattern pattern);

    std::uint64_t totalBytes() const { return total_bytes_; }
    std::uint64_t randomBytes() const { return random_bytes_; }

    void
    reset()
    {
        total_bytes_ = 0;
        random_bytes_ = 0;
    }

  private:
    SramConfig config_;
    std::uint64_t total_bytes_ = 0;
    std::uint64_t random_bytes_ = 0;
};

} // namespace fc::sim

#endif // FC_SIM_SRAM_H
