/** @file Unit tests for the LRU key-value store. */

#include "server/kvstore.h"

#include <gtest/gtest.h>

#include <list>
#include <string>
#include <unordered_map>

#include "util/rng.h"

namespace treadmill {
namespace server {
namespace {

TEST(KvStoreTest, GetMissOnEmptyStore)
{
    KvStore kv;
    std::string value;
    EXPECT_FALSE(kv.get("absent", &value));
    EXPECT_EQ(kv.misses(), 1u);
}

TEST(KvStoreTest, SetThenGetRoundTrips)
{
    KvStore kv;
    kv.set("k1", "hello");
    std::string value;
    EXPECT_TRUE(kv.get("k1", &value));
    EXPECT_EQ(value, "hello");
    EXPECT_EQ(kv.hits(), 1u);
    EXPECT_EQ(kv.sets(), 1u);
}

TEST(KvStoreTest, OverwriteReplacesValue)
{
    KvStore kv;
    kv.set("k", "old");
    kv.set("k", "newer");
    std::string value;
    EXPECT_TRUE(kv.get("k", &value));
    EXPECT_EQ(value, "newer");
    EXPECT_EQ(kv.size(), 1u);
    EXPECT_EQ(kv.bytesStored(), 5u);
}

TEST(KvStoreTest, NullValuePointerIsAllowed)
{
    KvStore kv;
    kv.set("k", "v");
    EXPECT_TRUE(kv.get("k", nullptr));
}

TEST(KvStoreTest, EraseRemovesEntry)
{
    KvStore kv;
    kv.set("k", "v");
    EXPECT_TRUE(kv.erase("k"));
    EXPECT_FALSE(kv.erase("k"));
    EXPECT_FALSE(kv.get("k", nullptr));
    EXPECT_EQ(kv.bytesStored(), 0u);
}

TEST(KvStoreTest, TracksBytesStored)
{
    KvStore kv;
    kv.set("a", std::string(100, 'x'));
    kv.set("b", std::string(50, 'y'));
    EXPECT_EQ(kv.bytesStored(), 150u);
}

TEST(KvStoreTest, EvictsLeastRecentlyUsed)
{
    KvStore kv(250);
    kv.set("a", std::string(100, 'a'));
    kv.set("b", std::string(100, 'b'));
    // Touch "a" so "b" becomes LRU.
    kv.get("a", nullptr);
    kv.set("c", std::string(100, 'c')); // forces eviction
    EXPECT_TRUE(kv.get("a", nullptr));
    EXPECT_FALSE(kv.get("b", nullptr));
    EXPECT_TRUE(kv.get("c", nullptr));
    EXPECT_EQ(kv.evictions(), 1u);
    EXPECT_LE(kv.bytesStored(), 250u);
}

TEST(KvStoreTest, UnboundedStoreNeverEvicts)
{
    KvStore kv(0);
    for (int i = 0; i < 1000; ++i)
        kv.set("key" + std::to_string(i), std::string(100, 'v'));
    EXPECT_EQ(kv.size(), 1000u);
    EXPECT_EQ(kv.evictions(), 0u);
}

TEST(KvStoreTest, SetUpdatesRecency)
{
    KvStore kv(250);
    kv.set("a", std::string(100, 'a'));
    kv.set("b", std::string(100, 'b'));
    kv.set("a", std::string(100, 'A')); // "a" most recent again
    kv.set("c", std::string(100, 'c'));
    EXPECT_TRUE(kv.get("a", nullptr));
    EXPECT_FALSE(kv.get("b", nullptr));
}

TEST(KvStoreTest, ManyKeysStressConsistency)
{
    KvStore kv;
    for (int i = 0; i < 5000; ++i)
        kv.set("key" + std::to_string(i), std::to_string(i));
    for (int i = 0; i < 5000; ++i) {
        std::string value;
        ASSERT_TRUE(kv.get("key" + std::to_string(i), &value));
        EXPECT_EQ(value, std::to_string(i));
    }
}

TEST(KvStoreTest, FillSetWritesPayloadInPlace)
{
    KvStore kv;
    kv.set("k", 40, 'v');
    const auto value = kv.find("k");
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(*value, std::string(40, 'v'));
    // Shrinking and regrowing reuse or replace the slot transparently.
    kv.set("k", 3, 'x');
    EXPECT_EQ(*kv.find("k"), "xxx");
    kv.set("k", 1000, 'y');
    EXPECT_EQ(*kv.find("k"), std::string(1000, 'y'));
    EXPECT_EQ(kv.bytesStored(), 1000u);
    EXPECT_FALSE(kv.find("absent").has_value());
    EXPECT_EQ(kv.hits(), 3u);
    EXPECT_EQ(kv.misses(), 1u);
}

/**
 * Model check against the reference store this one replaced (a
 * std::list in LRU order plus an unordered_map into it): a long
 * random mix of sets, gets, erases and capacity evictions over a
 * small key space, so the index wraps, collides and backward-shifts,
 * must give identical hits, misses, values, sizes and evictions.
 */
TEST(KvStoreTest, MatchesListLruReference)
{
    struct Ref {
        struct Entry {
            std::string key;
            std::string value;
        };
        std::list<Entry> lru;
        std::unordered_map<std::string, std::list<Entry>::iterator> table;
        std::uint64_t bytes = 0;
        std::uint64_t evictions = 0;
    };
    constexpr std::uint64_t kCapacity = 6000;
    KvStore kv(kCapacity);
    Ref ref;
    Rng rng(0x6b7673746f7265ull);
    for (int op = 0; op < 200000; ++op) {
        const std::string key =
            "key:" + std::to_string(rng.nextBelow(300));
        const double r = rng.nextDouble();
        if (r < 0.3) {
            const auto n = static_cast<std::size_t>(rng.nextBelow(120));
            const char fill = static_cast<char>('a' + op % 26);
            kv.set(key, n, fill);
            const auto it = ref.table.find(key);
            if (it != ref.table.end()) {
                ref.bytes -= it->second->value.size();
                it->second->value.assign(n, fill);
                ref.lru.splice(ref.lru.begin(), ref.lru, it->second);
            } else {
                ref.lru.push_front({key, std::string(n, fill)});
                ref.table[key] = ref.lru.begin();
            }
            ref.bytes += n;
            while (ref.bytes > kCapacity && !ref.lru.empty()) {
                ref.bytes -= ref.lru.back().value.size();
                ref.table.erase(ref.lru.back().key);
                ref.lru.pop_back();
                ++ref.evictions;
            }
        } else if (r < 0.9) {
            std::string got;
            const bool hit = kv.get(key, &got);
            const auto it = ref.table.find(key);
            ASSERT_EQ(hit, it != ref.table.end()) << op;
            if (hit) {
                ASSERT_EQ(got, it->second->value) << op;
                ref.lru.splice(ref.lru.begin(), ref.lru, it->second);
            }
        } else {
            const auto it = ref.table.find(key);
            ASSERT_EQ(kv.erase(key), it != ref.table.end()) << op;
            if (it != ref.table.end()) {
                ref.bytes -= it->second->value.size();
                ref.lru.erase(it->second);
                ref.table.erase(it);
            }
        }
        ASSERT_EQ(kv.size(), ref.table.size()) << op;
        ASSERT_EQ(kv.bytesStored(), ref.bytes) << op;
        ASSERT_EQ(kv.evictions(), ref.evictions) << op;
    }
}

} // namespace
} // namespace server
} // namespace treadmill
