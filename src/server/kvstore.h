/**
 * @file
 * An in-memory key-value store with LRU eviction.
 *
 * The Memcached model stores and serves real data: GETs return the
 * bytes a previous SET stored, misses are real misses, and memory
 * pressure evicts least-recently-used entries -- so workload configs
 * (key popularity, value sizes, GET/SET mix) behave as they would
 * against memcached itself.
 */

#ifndef TREADMILL_SERVER_KVSTORE_H_
#define TREADMILL_SERVER_KVSTORE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace treadmill {
namespace server {

/**
 * Hash-table KV store with size-bounded LRU eviction.
 *
 * Layout, like memcached's own: entries live in one recycled array,
 * linked into an index-based LRU list; a flat open-addressing index
 * (linear probing, backward-shift deletion) maps key hashes to entry
 * indices; and values live in slab-carved slots of power-of-two size
 * classes that are recycled through per-class free lists. A warm
 * store serves GETs, overwrites, inserts and evictions without heap
 * allocation: only index growth and fresh slab chunks allocate.
 */
class KvStore
{
  public:
    /**
     * @param capacityBytes Eviction threshold on stored value bytes
     *        (0 means unbounded).
     */
    explicit KvStore(std::uint64_t capacityBytes = 0);

    KvStore(const KvStore &) = delete;
    KvStore &operator=(const KvStore &) = delete;

    /**
     * Store @p value under @p key, updating LRU order and evicting if
     * over capacity.
     */
    void set(const std::string &key, std::string_view value);

    /**
     * Store @p valueBytes copies of @p fill under @p key, written
     * straight into the entry's value slot (what a SET of a synthetic
     * payload does, without building the payload first).
     */
    void set(const std::string &key, std::size_t valueBytes, char fill);

    /**
     * Look up @p key.
     *
     * @param value Receives the stored bytes on a hit.
     * @return true on hit.
     */
    bool get(const std::string &key, std::string *value);

    /**
     * Look up @p key without copying the value out.
     *
     * Identical side effects to get() -- the hit/miss counters tick
     * and a hit refreshes the entry's LRU position -- so callers that
     * only need the size (the response-building hot path) skip the
     * per-GET value copy. The view is valid until the next mutating
     * call.
     *
     * @return The stored value, or nullopt on miss.
     */
    std::optional<std::string_view> find(const std::string &key);

    /** Remove @p key if present; returns true when something was
     *  deleted. */
    bool erase(const std::string &key);

    /** Number of live entries. */
    std::size_t size() const { return liveCount; }

    /** Bytes of stored values. */
    std::uint64_t bytesStored() const { return storedBytes; }

    /** @name Operation counters
     * @{
     */
    std::uint64_t hits() const { return hitCount; }
    std::uint64_t misses() const { return missCount; }
    std::uint64_t sets() const { return setCount; }
    std::uint64_t evictions() const { return evictionCount; }
    /** @} */

  private:
    static constexpr std::uint32_t kNil = 0xffffffffu;
    /** Value slots are 16 << class bytes; class 28 (4 GiB) covers
     *  any 32-bit value size. */
    static constexpr unsigned kValueClasses = 29;
    /** Slab chunk size; larger value slots get a block of their own. */
    static constexpr std::size_t kChunkBytes = 64 * 1024;

    struct Entry {
        std::string key;
        std::uint64_t hash = 0;
        char *value = nullptr;
        std::uint32_t valueSize = 0;
        std::uint32_t valueClass = 0;
        /** LRU neighbours (prev is toward the most recent end); next
         *  links the free list while the entry is unused. */
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil;
    };

    /** One index slot: an entry index (kNil = empty) and the upper
     *  hash bits, so most probes skip the key compare. */
    struct Bucket {
        std::uint32_t entry = kNil;
        std::uint32_t tag = 0;
    };

    static std::uint64_t hashKey(const std::string &key);

    /** Index position holding @p key, or kNil. */
    std::uint32_t lookup(const std::string &key, std::uint64_t hash) const;
    /** Index position holding entry @p idx (which must be indexed). */
    std::uint32_t positionOf(std::uint32_t idx) const;
    /** Entry for a SET of @p key: the existing one (counted out of
     *  storedBytes, refreshed in LRU order) or a fresh linked one. */
    Entry &upsert(const std::string &key);
    /** Give @p e a value slot of at least @p bytes and set its size. */
    void resizeValue(Entry &e, std::size_t bytes);
    /** Unlink, unindex and recycle entry @p idx. */
    void remove(std::uint32_t idx);
    /** Hit path shared by get() and find(). */
    Entry *touch(const std::string &key);
    /** Evict LRU entries until under capacity. */
    void enforceCapacity();

    void unlinkLru(std::uint32_t idx);
    void pushMostRecent(std::uint32_t idx);
    void unindex(std::uint32_t pos);
    void growIndex();
    /** Append a fresh entry; returns its index. */
    std::uint32_t newEntry();

    /** Heap block of @p bytes owned by the store. */
    char *allocateBlock(std::size_t bytes);
    char *carveValueSlot(std::uint32_t cls);
    void freeValueSlot(std::uint32_t cls, char *slot);

    std::uint64_t capacity;
    std::vector<Entry> entries;
    std::vector<Bucket> index; ///< Power-of-two size.
    std::uint32_t mostRecent = kNil;
    std::uint32_t leastRecent = kNil;
    std::uint32_t freeEntries = kNil;
    std::size_t liveCount = 0;

    /** @name Value slabs
     * @{ */
    std::vector<std::unique_ptr<char[]>> slabChunks;
    char *bump = nullptr;
    std::size_t bumpLeft = 0;
    std::array<char *, kValueClasses> freeSlots{};
    /** @} */

    std::uint64_t storedBytes = 0;
    std::uint64_t hitCount = 0;
    std::uint64_t missCount = 0;
    std::uint64_t setCount = 0;
    std::uint64_t evictionCount = 0;
};

} // namespace server
} // namespace treadmill

#endif // TREADMILL_SERVER_KVSTORE_H_
