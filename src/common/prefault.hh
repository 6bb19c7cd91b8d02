/**
 * @file
 * Parallel first touch for the simulator's large state arrays.
 *
 * Building a System zero-fills every tag, LRU and predictor array it
 * owns, and at paper scale those are big: Alloy Cache keeps one 4-byte
 * tag word per 72-byte TAD, 56 MiB of them for a 1 GB cache. The fill
 * takes one minor page fault per 4 KiB page, and the faults -- not the
 * stores -- are most of the set-up time. assignPrefaulted() first has
 * the kernel populate the fresh buffer from several threads at once
 * (MADV_POPULATE_WRITE on disjoint slices), so the fill then writes
 * resident pages.
 *
 * The arrays stay plain std::vector<T> (checkpoints and every caller
 * see no difference) and the fill stays explicit, so every fault is
 * paid in set-up and none moves into the timed run. Where the kernel
 * or platform lacks MADV_POPULATE_WRITE, or only one CPU is available,
 * the fill faults the pages in itself as plain assign() does.
 *
 * Transparent huge pages (MADV_HUGEPAGE) are deliberately not used: on
 * a VM guest that reports free memory to its host, a huge-page fill
 * that follows seconds after the previous System was freed refaults
 * every page on the host and is slower than 4 KiB pages.
 */

#ifndef UNISON_COMMON_PREFAULT_HH
#define UNISON_COMMON_PREFAULT_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <system_error>
#include <thread>
#include <type_traits>
#include <vector>

#if __has_include(<sys/mman.h>)
#include <sys/mman.h>
#include <unistd.h>
#endif

namespace unison {

/** Smaller buffers are left to the fill. glibc serves every block of
 *  32 MiB or more by a fresh mmap, so its pages are all unpopulated;
 *  a smaller block may be heap memory a freed array left resident,
 *  where threads to populate it would only add their start-up cost. */
inline constexpr std::size_t kPrefaultMinBytes = std::size_t{32} << 20;

/** Each populating thread takes at least this much of the buffer. */
inline constexpr std::size_t kPrefaultSliceBytes = std::size_t{8} << 20;

/** Populate the page-aligned interior of [ptr, ptr + bytes) with
 *  writable pages, split across up to one thread per CPU (a no-op
 *  below kPrefaultMinBytes, on one CPU or without
 *  MADV_POPULATE_WRITE). */
inline void
prefault([[maybe_unused]] void *ptr, [[maybe_unused]] std::size_t bytes)
{
#ifdef MADV_POPULATE_WRITE
    if (bytes < kPrefaultMinBytes)
        return;
    static const std::size_t cpus = std::thread::hardware_concurrency();
    const std::size_t threads =
        std::min(cpus, bytes / kPrefaultSliceBytes);
    if (threads < 2)
        return;
    static const std::uintptr_t page =
        static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
    const std::uintptr_t begin =
        (reinterpret_cast<std::uintptr_t>(ptr) + page - 1) & ~(page - 1);
    const std::uintptr_t end =
        (reinterpret_cast<std::uintptr_t>(ptr) + bytes) & ~(page - 1);
    const std::uintptr_t slice =
        ((end - begin) / threads + page - 1) & ~(page - 1);
    // Best effort: a kernel without MADV_POPULATE_WRITE rejects it, and
    // a slice no thread could be started for is left to the fill.
    const auto populate = [=](std::size_t t) {
        const std::uintptr_t from = begin + t * slice;
        const std::uintptr_t to = std::min(end, from + slice);
        if (from < to)
            (void)madvise(reinterpret_cast<void *>(from), to - from,
                          MADV_POPULATE_WRITE);
    };
    std::vector<std::thread> helpers;
    for (std::size_t t = 1; t < threads; ++t) {
        try {
            helpers.emplace_back(populate, t);
        } catch (const std::system_error &) {
            break;
        }
    }
    populate(0);
    for (std::thread &helper : helpers)
        helper.join();
#endif
}

/** `v.assign(n, value)` into a fresh, prefaulted buffer: the old
 *  buffer is released first so the fill never reuses it. */
template <typename T>
void
assignPrefaulted(std::vector<T> &v, std::size_t n,
                 const std::type_identity_t<T> &value)
{
    std::vector<T>().swap(v);
    v.reserve(n);
    prefault(v.data(), n * sizeof(T));
    // reserve() guarantees the capacity; saying so removes assign()'s
    // reallocating branch, which GCC 12 under LTO misreads as an
    // overflow (-Wstringop-overflow) for small constant n. (Filling
    // through insert() instead avoids the warning too, but its fill
    // loop runs about 3x slower.)
    if (v.capacity() < n)
        __builtin_unreachable();
    v.assign(n, value);
}

} // namespace unison

#endif // UNISON_COMMON_PREFAULT_HH
