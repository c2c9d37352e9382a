/**
 * @file
 * A bounded map with true-LRU eviction in constant time.
 *
 * The entries sit on an intrusive recency list, most recent first,
 * with a RecyclingMap from key to list node: a lookup or a re-insert
 * splices the node to the front, and an insert into a full map evicts
 * the list's tail, so no operation scans the entries. The nodes of
 * evicted, erased and cleared entries are kept for the next insert,
 * so a full map allocates nothing. The TLBs and the page walkers'
 * PTE-line filters keep their entries in one.
 */

#ifndef CCSVM_BASE_LRU_MAP_HH
#define CCSVM_BASE_LRU_MAP_HH

#include <cstddef>
#include <iterator>
#include <list>

#include "base/recycling_map.hh"

namespace ccsvm
{

/** At most `capacity` entries from Key to T, evicting true-LRU. */
template <typename Key, typename T>
class LruMap
{
  public:
    explicit LruMap(unsigned capacity) : capacity_(capacity) {}

    /** The value at @p key, now the most recent; null if absent. */
    T *
    find(const Key &key)
    {
        const auto it = map_.find(key);
        if (it == map_.end())
            return nullptr;
        lru_.splice(lru_.begin(), lru_, it->second);
        return &it->second->value;
    }

    /** Set @p key to @p value as the most recent entry, evicting the
     * least recent one when a new key finds the map full. */
    void
    insert(const Key &key, const T &value)
    {
        if (const auto it = map_.find(key); it != map_.end()) {
            it->second->value = value;
            lru_.splice(lru_.begin(), lru_, it->second);
            return;
        }
        if (map_.size() >= capacity_) {
            map_.erase(lru_.back().key);
            free_.splice(free_.begin(), lru_, std::prev(lru_.end()));
        }
        if (free_.empty())
            free_.emplace_front();
        lru_.splice(lru_.begin(), free_, free_.begin());
        lru_.front() = Node{key, value};
        map_.emplace(key) = lru_.begin();
    }

    /** Remove @p key, if present. */
    void
    erase(const Key &key)
    {
        const auto it = map_.find(key);
        if (it == map_.end())
            return;
        free_.splice(free_.begin(), lru_, it->second);
        map_.erase(it);
    }

    void
    clear()
    {
        map_.clear();
        free_.splice(free_.begin(), lru_);
    }

    std::size_t size() const { return map_.size(); }

  private:
    struct Node
    {
        Key key{};
        T value{};
    };

    unsigned capacity_;
    /** Recency order, most recent first. */
    std::list<Node> lru_;
    /** Nodes of evicted, erased and cleared entries. */
    std::list<Node> free_;
    RecyclingMap<Key, typename std::list<Node>::iterator> map_;
};

} // namespace ccsvm

#endif // CCSVM_BASE_LRU_MAP_HH
