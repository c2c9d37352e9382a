/**
 * @file
 * A hash map that keeps the nodes of erased entries for reuse.
 *
 * The memory system opens and closes short-lived records at a high
 * rate: an L1's MSHRs and victim-buffer entries, a home bank's
 * transactions and stall queues, a TLB's translations. A plain
 * std::unordered_map allocates a node per insert and frees it per
 * erase; RecyclingMap parks the erased node (std::unordered_map's
 * extract) and reinserts it for the next key, so once the map has
 * seen its peak size, inserts and erases allocate nothing.
 */

#ifndef CCSVM_BASE_RECYCLING_MAP_HH
#define CCSVM_BASE_RECYCLING_MAP_HH

#include <cstddef>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/logging.hh"

namespace ccsvm
{

/** An unordered map from Key to T whose erased nodes are reused. */
template <typename Key, typename T>
class RecyclingMap
{
    using Map = std::unordered_map<Key, T>;

  public:
    using iterator = typename Map::iterator;
    using const_iterator = typename Map::const_iterator;

    iterator find(const Key &key) { return map_.find(key); }
    bool contains(const Key &key) const { return map_.contains(key); }

    iterator begin() { return map_.begin(); }
    iterator end() { return map_.end(); }
    const_iterator begin() const { return map_.begin(); }
    const_iterator end() const { return map_.end(); }

    std::size_t size() const { return map_.size(); }

    /** Insert a value-initialized T at @p key, which must be absent,
     * in a parked node when there is one; returns the new value. */
    T &
    emplace(const Key &key)
    {
        if (spare_.empty()) {
            auto [it, fresh] = map_.try_emplace(key);
            ccsvm_assert(fresh, "RecyclingMap: key already present");
            return it->second;
        }
        auto node = std::move(spare_.back());
        spare_.pop_back();
        node.key() = key;
        node.mapped() = T{};
        auto r = map_.insert(std::move(node));
        ccsvm_assert(r.inserted, "RecyclingMap: key already present");
        return r.position->second;
    }

    /** Erase the entry at @p it, parking its node. */
    void erase(iterator it) { spare_.push_back(map_.extract(it)); }

    /** Erase the entry at @p key, if any. */
    void
    erase(const Key &key)
    {
        if (auto it = map_.find(key); it != map_.end())
            erase(it);
    }

    /** Erase every entry, parking every node. */
    void
    clear()
    {
        while (!map_.empty())
            erase(map_.begin());
    }

  private:
    Map map_;
    /** Nodes of erased entries, reused by emplace(). */
    std::vector<typename Map::node_type> spare_;
};

} // namespace ccsvm

#endif // CCSVM_BASE_RECYCLING_MAP_HH
