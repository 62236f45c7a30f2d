/**
 * @file
 * core::ShardMap — deterministic consistent-hash placement of keys
 * onto shards.
 *
 * The paper's block-parallel design assumes many independent on-chip
 * blocks that can be placed and drained independently. On the host,
 * the serving layer runs N independent ThreadPool shards (see
 * serve::AsyncPipeline) and places whole requests onto them; this
 * map is that one placement decision (serve::Scheduler owns the only
 * instance of a pipeline).
 *
 * Each shard owns kReplicas pseudo-random points on a 64-bit ring,
 * and a key maps to the shard owning the first ring point at or after
 * the key's hash. The map is a pure function of the shard count, so:
 *
 *   - the same key always lands on the same shard (affinity: a
 *     client session keyed by id keeps hitting warm caches), and
 *   - changing the shard count from N to N+1 remaps only the keys
 *     the new shard's points capture (~1/(N+1) of them) instead of
 *     reshuffling everything, which is what makes shard-count
 *     reconfiguration cheap for sticky clients.
 *
 * Every operation in the library is deterministic with respect to
 * its pool, so WHERE a request runs never changes WHAT it computes;
 * shards trade only placement, contention, and tail latency.
 */

#ifndef FC_CORE_SHARD_MAP_H
#define FC_CORE_SHARD_MAP_H

#include <cstdint>
#include <vector>

namespace fc::core {

/**
 * Deterministic consistent-hash ring: shard placement as a pure
 * function of (key, num_shards). Cheap to copy.
 */
class ShardMap
{
  public:
    /** Ring points per shard. More replicas = smoother key balance;
     *  64 keeps the worst shard within a few percent of fair share
     *  while the ring stays cache-resident. */
    static constexpr unsigned kReplicas = 64;

    explicit ShardMap(unsigned num_shards);

    unsigned numShards() const { return num_shards_; }

    /** Shard owning @p key: binary search for the first ring point at
     *  or after hash(key), wrapping to the first point. Keys hash as
     *  mix(key ^ salt), a domain disjoint from the ring points'. */
    unsigned shardFor(std::uint64_t key) const;

    /** The 64-bit mix (splitmix64) ring points and (salted) keys go
     *  through; the .fcpc writer derives default placement keys with
     *  it. */
    static std::uint64_t mix(std::uint64_t x);

  private:
    struct Point
    {
        std::uint64_t hash;
        std::uint32_t shard;
    };

    unsigned num_shards_;
    std::vector<Point> ring_; ///< sorted by hash
};

} // namespace fc::core

#endif // FC_CORE_SHARD_MAP_H
