/**
 * @file
 * A list of int lists stored flat (compressed sparse rows): the
 * stream-dependence analysis keeps its per-op lists in it, and the
 * scheduler's dependence graph its per-node edge lists.
 */
#ifndef SPS_COMMON_FLAT_LISTS_H
#define SPS_COMMON_FLAT_LISTS_H

#include <cstddef>
#include <span>
#include <vector>

namespace sps {

/**
 * One list of ints per index, stored flat: list i is
 * items[offsets[i], offsets[i + 1]), so all the lists cost two
 * allocations, not one per list.
 */
struct FlatLists
{
    /** One more entry than there are lists; starts at {0}. */
    std::vector<int> offsets{0};
    std::vector<int> items;

    size_t size() const { return offsets.size() - 1; }

    std::span<const int> operator[](size_t i) const
    {
        return std::span<const int>(items).subspan(
            static_cast<size_t>(offsets[i]),
            static_cast<size_t>(offsets[i + 1] - offsets[i]));
    }

    /** End the list being built: the items appended since the last
     *  close() become the next list. */
    void close() { offsets.push_back(static_cast<int>(items.size())); }

    /**
     * `lists` lists holding the indices 0 .. n - 1: index i goes in
     * list key(i), and each list holds its indices ascending.
     */
    template <typename Key>
    static FlatLists
    groupBy(size_t lists, size_t n, Key &&key)
    {
        FlatLists out;
        out.offsets.assign(lists + 1, 0);
        for (size_t i = 0; i < n; ++i)
            ++out.offsets[static_cast<size_t>(key(i)) + 1];
        for (size_t l = 0; l < lists; ++l)
            out.offsets[l + 1] += out.offsets[l];
        out.items.resize(n);
        std::vector<int> next(out.offsets.begin(), out.offsets.end() - 1);
        for (size_t i = 0; i < n; ++i)
            out.items[static_cast<size_t>(
                next[static_cast<size_t>(key(i))]++)] =
                static_cast<int>(i);
        return out;
    }
};

} // namespace sps

#endif // SPS_COMMON_FLAT_LISTS_H
