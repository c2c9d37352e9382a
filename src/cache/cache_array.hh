/**
 * @file
 * Generic set-associative cache array with pluggable replacement
 * (true LRU by default; see cache/replacer.hh).
 *
 * The array stores protocol-specific line types (L1 lines carry MOESI
 * state, L2 lines carry directory state); it owns only geometry,
 * lookup, allocation and victim selection. Lines carry real 64-byte
 * data blocks — the coherence protocol is functionally load-bearing.
 *
 * The ways are allocated zero-filled, and all-zero bytes are an
 * invalid way, so building an array writes none of them: a large L2
 * whose memory comes fresh from the OS costs no page faults until its
 * lines are first used.
 */

#ifndef CCSVM_CACHE_CACHE_ARRAY_HH
#define CCSVM_CACHE_CACHE_ARRAY_HH

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

#include "base/intmath.hh"
#include "base/logging.hh"
#include "base/types.hh"
#include "cache/replacer.hh"
#include "mem/phys_mem.hh"

namespace ccsvm::cache
{

/**
 * Set-associative array of LineT.
 *
 * LineT must provide members: `Addr addr`, `bool valid`, and be
 * trivially copyable and destructible. The array addresses lines by
 * aligned block address.
 */
template <typename LineT>
class CacheArray
{
  public:
    CacheArray(Addr size_bytes, unsigned assoc,
               ReplacerKind replacer = ReplacerKind::Lru,
               std::uint64_t replace_seed = 0)
        : assoc_(assoc),
          numSets_(static_cast<unsigned>(
              size_bytes / mem::blockBytes / assoc)),
          replacer_(replacer, replace_seed)
    {
        ccsvm_assert(assoc >= 1, "associativity must be >= 1");
        ccsvm_assert(isPowerOf2(numSets_),
                     "cache must have a power-of-two set count "
                     "(size=%llu assoc=%u)",
                     (unsigned long long)size_bytes, assoc);
        const std::size_t n = static_cast<std::size_t>(numSets_) * assoc_;
        store_.reset(static_cast<Way *>(std::calloc(n, sizeof(Way))));
        if (!store_)
            throw std::bad_alloc();
        ways_ = {store_.get(), n};
        metas_.resize(assoc_);
    }

    unsigned numSets() const { return numSets_; }
    unsigned assoc() const { return assoc_; }

    unsigned
    setIndex(Addr block_addr) const
    {
        return static_cast<unsigned>(
            (block_addr >> mem::blockShift) & (numSets_ - 1));
    }

    /** Find the line holding @p block_addr, or nullptr. */
    LineT *
    lookup(Addr block_addr)
    {
        auto [base, end] = setRange(block_addr);
        for (std::size_t i = base; i < end; ++i) {
            if (ways_[i].line.valid && ways_[i].line.addr == block_addr)
                return &ways_[i].line;
        }
        return nullptr;
    }

    /** Mark @p line most-recently used. */
    void
    touch(LineT *line)
    {
        wayOf(line).lastUse = ++useClock_;
    }

    /**
     * Claim an invalid way in @p block_addr's set and initialize its
     * tag. Returns nullptr if the set has no invalid way (the caller
     * must make room by evicting a victim first).
     */
    LineT *
    allocate(Addr block_addr)
    {
        auto [base, end] = setRange(block_addr);
        for (std::size_t i = base; i < end; ++i) {
            if (!ways_[i].line.valid) {
                ways_[i].line = LineT{};
                ways_[i].line.valid = true;
                ways_[i].line.addr = block_addr;
                ways_[i].lastUse = ++useClock_;
                ways_[i].allocSeq = ++allocClock_;
                return &ways_[i].line;
            }
        }
        return nullptr;
    }

    /**
     * Replacement-policy victim in @p block_addr's set among the
     * valid lines for which @p evictable returns true; nullptr if
     * none qualifies. The default lru policy picks the
     * least-recently-used such line, byte-identical to the pre-seam
     * array (strict < scan in way order over the same use clock).
     */
    LineT *
    findVictim(Addr block_addr,
               const std::function<bool(const LineT &)> &evictable)
    {
        auto [base, end] = setRange(block_addr);
        for (std::size_t i = base; i < end; ++i) {
            const auto &w = ways_[i];
            WayMeta &m = metas_[i - base];
            m.candidate = w.line.valid && evictable(w.line);
            m.preferEvict = false;
            // Lines opt into the region policy's preference by
            // exposing evictPreferred(); other line types never
            // volunteer, so region degrades to lru for them.
            if constexpr (requires { w.line.evictPreferred(); })
                m.preferEvict = m.candidate && w.line.evictPreferred();
            m.lastUse = w.lastUse;
            m.allocSeq = w.allocSeq;
        }
        const int way = replacer_.victimWay(metas_.data(), assoc_,
                                            setIndex(block_addr));
        return way < 0 ? nullptr : &ways_[base + way].line;
    }

    /** Drop @p line from the array. */
    void
    invalidate(LineT *line)
    {
        line->valid = false;
    }

    /** Visit every valid line. */
    void
    forEach(const std::function<void(LineT &)> &fn)
    {
        for (auto &w : ways_) {
            if (w.line.valid)
                fn(w.line);
        }
    }

    /** Number of currently valid lines (for tests). */
    unsigned
    countValid() const
    {
        unsigned n = 0;
        for (const auto &w : ways_)
            n += w.line.valid;
        return n;
    }

  private:
    struct Way
    {
        LineT line{};
        std::uint64_t lastUse = 0;
        std::uint64_t allocSeq = 0;
    };
    // calloc creates the ways; nothing destroys them.
    static_assert(std::is_trivially_copyable_v<Way> &&
                  std::is_trivially_destructible_v<Way>);

    struct Free
    {
        void operator()(Way *p) const noexcept { std::free(p); }
    };

    std::pair<std::size_t, std::size_t>
    setRange(Addr block_addr) const
    {
        const std::size_t base =
            static_cast<std::size_t>(setIndex(block_addr)) * assoc_;
        return {base, base + assoc_};
    }

    Way &
    wayOf(LineT *line)
    {
        // Lines live inside ways_; recover the Way via offset math.
        auto *way = reinterpret_cast<Way *>(
            reinterpret_cast<char *>(line) - offsetof(Way, line));
        return *way;
    }

    unsigned assoc_;
    unsigned numSets_;
    std::uint64_t useClock_ = 0;
    std::uint64_t allocClock_ = 0;
    Replacer replacer_;
    std::unique_ptr<Way[], Free> store_;
    std::span<Way> ways_;
    std::vector<WayMeta> metas_; ///< per-set scratch for findVictim
};

} // namespace ccsvm::cache

#endif // CCSVM_CACHE_CACHE_ARRAY_HH
