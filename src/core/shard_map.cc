#include "core/shard_map.h"

#include <algorithm>

#include "common/logging.h"

namespace fc::core {

namespace {

/** XORed into every key before mix(): ring points hash the inputs
 *  (shard << 32) | replica, and a salt whose high half is no shard
 *  index keeps keys of any realistic size off those inputs. */
constexpr std::uint64_t kKeySalt = 0xd6e8feb86659fd93ull;

} // namespace

std::uint64_t
ShardMap::mix(std::uint64_t x)
{
    // splitmix64 finalizer: cheap and well-distributed. Placement
    // must not drift between builds: ring points and key hashes are
    // fixed. They moved once, when keys got their own hash domain
    // (see shardFor), and the .fcpc writer's derived placement keys
    // never changed.
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

ShardMap::ShardMap(unsigned num_shards) : num_shards_(num_shards)
{
    fc_assert(num_shards_ >= 1, "shard map needs at least one shard");
    if (num_shards_ == 1)
        return; // every key maps to shard 0; no ring needed
    ring_.reserve(static_cast<std::size_t>(num_shards_) * kReplicas);
    for (std::uint32_t s = 0; s < num_shards_; ++s) {
        for (std::uint32_t r = 0; r < kReplicas; ++r) {
            // Ring points are a function of (shard, replica) only, so
            // shard s's points are identical at any shard count —
            // the consistency property.
            const std::uint64_t h =
                mix((static_cast<std::uint64_t>(s) << 32) | r);
            ring_.push_back(Point{h, s});
        }
    }
    std::sort(ring_.begin(), ring_.end(),
              [](const Point &a, const Point &b) {
                  return a.hash != b.hash ? a.hash < b.hash
                                          : a.shard < b.shard;
              });
}

unsigned
ShardMap::shardFor(std::uint64_t key) const
{
    if (num_shards_ == 1)
        return 0;
    // Keys hash in their own domain: unsalted, mix(k) for
    // k < kReplicas would BE shard 0's ring point mix((0 << 32) | k),
    // putting every small key (the first ticket ids, small session
    // keys) on shard 0 at any shard count.
    const std::uint64_t h = mix(key ^ kKeySalt);
    const auto it = std::lower_bound(
        ring_.begin(), ring_.end(), h,
        [](const Point &p, std::uint64_t value) {
            return p.hash < value;
        });
    return it == ring_.end() ? ring_.front().shard : it->shard;
}

} // namespace fc::core
