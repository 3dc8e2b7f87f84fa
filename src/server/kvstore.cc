// tmlint:hot-path -- every server request lands in one of these LRU
// operations; only index growth and fresh slab chunks may allocate.
#include "server/kvstore.h"

#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>

#include "util/logging.h"

namespace treadmill {
namespace server {

namespace {

/** Size class of a value of @p bytes: slots are 16 << class bytes. */
std::uint32_t
valueClassOf(std::size_t bytes)
{
    const unsigned width = bytes <= 16 ? 4 : std::bit_width(bytes - 1);
    return width - 4;
}

std::size_t
classBytes(std::uint32_t cls)
{
    return std::size_t{16} << cls;
}

} // namespace

KvStore::KvStore(std::uint64_t capacityBytes)
    : capacity(capacityBytes), index(16)
{
}

std::uint64_t
KvStore::hashKey(const std::string &key)
{
    return std::hash<std::string>{}(key);
}

std::uint32_t
KvStore::lookup(const std::string &key, std::uint64_t hash) const
{
    const std::size_t mask = index.size() - 1;
    const auto tag = static_cast<std::uint32_t>(hash >> 32);
    for (std::size_t pos = hash & mask;; pos = (pos + 1) & mask) {
        const Bucket &b = index[pos];
        if (b.entry == kNil)
            return kNil;
        if (b.tag == tag && entries[b.entry].key == key)
            return static_cast<std::uint32_t>(pos);
    }
}

std::uint32_t
KvStore::positionOf(std::uint32_t idx) const
{
    const std::size_t mask = index.size() - 1;
    std::size_t pos = entries[idx].hash & mask;
    while (index[pos].entry != idx)
        pos = (pos + 1) & mask;
    return static_cast<std::uint32_t>(pos);
}

void
KvStore::unlinkLru(std::uint32_t idx)
{
    Entry &e = entries[idx];
    if (e.prev != kNil)
        entries[e.prev].next = e.next;
    else
        mostRecent = e.next;
    if (e.next != kNil)
        entries[e.next].prev = e.prev;
    else
        leastRecent = e.prev;
}

void
KvStore::pushMostRecent(std::uint32_t idx)
{
    Entry &e = entries[idx];
    e.prev = kNil;
    e.next = mostRecent;
    if (mostRecent != kNil)
        entries[mostRecent].prev = idx;
    else
        leastRecent = idx;
    mostRecent = idx;
}

void
KvStore::unindex(std::uint32_t pos)
{
    // Backward-shift deletion: pull later members of the probe run
    // into the hole unless that would move them before their home
    // slot, so lookups never need tombstones.
    const std::size_t mask = index.size() - 1;
    std::size_t hole = pos;
    for (std::size_t next = (hole + 1) & mask; index[next].entry != kNil;
         next = (next + 1) & mask) {
        const std::size_t home = entries[index[next].entry].hash & mask;
        if (((next - home) & mask) >= ((next - hole) & mask)) {
            index[hole] = index[next];
            hole = next;
        }
    }
    index[hole] = Bucket{};
}

void
KvStore::growIndex()
{
    // tmlint:cold: doubles the index when it passes 3/4 full; a warm
    // store has reached its working-set size
    std::vector<Bucket> old(index.size() * 2);
    old.swap(index);
    const std::size_t mask = index.size() - 1;
    for (const Bucket &b : old) {
        if (b.entry == kNil)
            continue;
        std::size_t pos = entries[b.entry].hash & mask;
        while (index[pos].entry != kNil)
            pos = (pos + 1) & mask;
        index[pos] = b;
    }
}

char *
KvStore::allocateBlock(std::size_t bytes)
{
    // tmlint:cold: one slab chunk per kChunkBytes of values the store
    // has ever held at once; recycled slots come off the free lists
    // tmlint:allow-next-line(hot-path-no-alloc): cold slab refill
    slabChunks.push_back(std::make_unique<char[]>(bytes));
    return slabChunks.back().get();
}

std::uint32_t
KvStore::newEntry()
{
    // tmlint:cold: amortized growth to the largest key working set;
    // removed entries are recycled through the free list
    entries.emplace_back();
    return static_cast<std::uint32_t>(entries.size() - 1);
}

char *
KvStore::carveValueSlot(std::uint32_t cls)
{
    if (char *slot = freeSlots[cls]) {
        std::memcpy(&freeSlots[cls], slot, sizeof(char *));
        return slot;
    }
    const std::size_t bytes = classBytes(cls);
    if (bumpLeft < bytes) {
        // Oversized slots get a block of their own; otherwise the
        // rest of the current chunk (less than one slot) is dropped.
        if (bytes > kChunkBytes)
            return allocateBlock(bytes);
        bump = allocateBlock(kChunkBytes);
        bumpLeft = kChunkBytes;
    }
    char *slot = bump;
    bump += bytes;
    bumpLeft -= bytes;
    return slot;
}

void
KvStore::freeValueSlot(std::uint32_t cls, char *slot)
{
    // The free list threads through the slots' first bytes.
    std::memcpy(slot, &freeSlots[cls], sizeof(char *));
    freeSlots[cls] = slot;
}

void
KvStore::resizeValue(Entry &e, std::size_t bytes)
{
    TM_ASSERT(bytes <= UINT32_MAX, "KV store values are at most 4 GiB");
    const std::uint32_t cls = valueClassOf(bytes);
    if (e.value == nullptr || cls > e.valueClass) {
        if (e.value != nullptr)
            freeValueSlot(e.valueClass, e.value);
        e.value = carveValueSlot(cls);
        e.valueClass = cls;
    }
    e.valueSize = static_cast<std::uint32_t>(bytes);
    storedBytes += bytes;
}

KvStore::Entry &
KvStore::upsert(const std::string &key)
{
    ++setCount;
    const std::uint64_t hash = hashKey(key);
    const std::uint32_t pos = lookup(key, hash);
    if (pos != kNil) {
        const std::uint32_t idx = index[pos].entry;
        Entry &e = entries[idx];
        storedBytes -= e.valueSize;
        if (idx != mostRecent) {
            unlinkLru(idx);
            pushMostRecent(idx);
        }
        return e;
    }

    if ((liveCount + 1) * 4 > index.size() * 3)
        growIndex();
    std::uint32_t idx = freeEntries;
    if (idx != kNil)
        freeEntries = entries[idx].next;
    else
        idx = newEntry();
    Entry &e = entries[idx];
    // A recycled entry keeps its key buffer and value slot.
    e.key.assign(key);
    e.hash = hash;
    const std::size_t mask = index.size() - 1;
    std::size_t slot = hash & mask;
    while (index[slot].entry != kNil)
        slot = (slot + 1) & mask;
    index[slot] = Bucket{idx, static_cast<std::uint32_t>(hash >> 32)};
    pushMostRecent(idx);
    ++liveCount;
    return e;
}

void
KvStore::set(const std::string &key, std::string_view value)
{
    Entry &e = upsert(key);
    resizeValue(e, value.size());
    if (!value.empty())
        std::memcpy(e.value, value.data(), value.size());
    enforceCapacity();
}

void
KvStore::set(const std::string &key, std::size_t valueBytes, char fill)
{
    Entry &e = upsert(key);
    resizeValue(e, valueBytes);
    std::memset(e.value, fill, valueBytes);
    enforceCapacity();
}

KvStore::Entry *
KvStore::touch(const std::string &key)
{
    const std::uint32_t pos = lookup(key, hashKey(key));
    if (pos == kNil) {
        ++missCount;
        return nullptr;
    }
    ++hitCount;
    const std::uint32_t idx = index[pos].entry;
    if (idx != mostRecent) {
        unlinkLru(idx);
        pushMostRecent(idx);
    }
    return &entries[idx];
}

bool
KvStore::get(const std::string &key, std::string *value)
{
    const Entry *e = touch(key);
    if (e == nullptr)
        return false;
    if (value != nullptr)
        value->assign(e->value, e->valueSize);
    return true;
}

std::optional<std::string_view>
KvStore::find(const std::string &key)
{
    const Entry *e = touch(key);
    if (e == nullptr)
        return std::nullopt;
    return std::string_view(e->value, e->valueSize);
}

void
KvStore::remove(std::uint32_t idx)
{
    Entry &e = entries[idx];
    storedBytes -= e.valueSize;
    e.valueSize = 0;
    unindex(positionOf(idx));
    unlinkLru(idx);
    e.next = freeEntries;
    freeEntries = idx;
    --liveCount;
}

bool
KvStore::erase(const std::string &key)
{
    const std::uint32_t pos = lookup(key, hashKey(key));
    if (pos == kNil)
        return false;
    remove(index[pos].entry);
    return true;
}

void
KvStore::enforceCapacity()
{
    if (capacity == 0)
        return;
    while (storedBytes > capacity && leastRecent != kNil) {
        remove(leastRecent);
        ++evictionCount;
    }
}

} // namespace server
} // namespace treadmill
