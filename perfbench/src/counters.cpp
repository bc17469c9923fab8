#include "counters.hpp"

#include <sys/resource.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

namespace perfbench {
namespace {

/// One cache line per thread, so counting never bounces a shared line.
/// Threads past the last slot share it (still correct, just contended).
struct alignas(64) Slot {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> bytes{0};
};

constexpr unsigned kSlots = 256;
Slot g_slots[kSlots];
std::atomic<unsigned> g_next_slot{0};
thread_local int t_slot = -1;

Slot& my_slot() noexcept {
    if (t_slot < 0) {
        const unsigned s = g_next_slot.fetch_add(1, std::memory_order_relaxed);
        t_slot = static_cast<int>(s < kSlots ? s : kSlots - 1);
    }
    return g_slots[t_slot];
}

void note(std::size_t size) noexcept {
    Slot& slot = my_slot();
    slot.calls.fetch_add(1, std::memory_order_relaxed);
    slot.bytes.fetch_add(size, std::memory_order_relaxed);
}

void* allocate(std::size_t size) {
    note(size);
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc();
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
    note(size);
    const auto a = static_cast<std::size_t>(align);
    const std::size_t rounded = (size + a - 1) / a * a;
    if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
    throw std::bad_alloc();
}

/// Allocations made so far by the calling thread.
AllocCounts thread_alloc_counts() noexcept {
    const Slot& slot = my_slot();
    return {slot.calls.load(std::memory_order_relaxed),
            slot.bytes.load(std::memory_order_relaxed)};
}

} // namespace

AllocCounts alloc_counts() noexcept {
    AllocCounts total;
    for (const Slot& slot : g_slots) {
        total.calls += slot.calls.load(std::memory_order_relaxed);
        total.bytes += slot.bytes.load(std::memory_order_relaxed);
    }
    return total;
}

bool alloc_self_test(std::string& why) {
    constexpr std::size_t kObjects = 1000;
    const AllocCounts before = thread_alloc_counts();
    std::vector<std::unique_ptr<std::uint64_t>> more;
    more.reserve(kObjects);  // one allocation, plus one per object below
    for (std::size_t i = 0; i < kObjects; ++i) more.push_back(std::make_unique<std::uint64_t>(i));
    const AllocCounts after = thread_alloc_counts();
    std::uint64_t sum = 0;
    for (const auto& p : more) sum += *p;
    const std::uint64_t calls = after.calls - before.calls;
    const std::uint64_t expected = kObjects + 1;
    if (calls != expected || sum != kObjects * (kObjects - 1) / 2) {
        why = "allocation hook saw " + std::to_string(calls) + " allocations, expected " +
              std::to_string(expected);
        return false;
    }
    return true;
}

ProcSample proc_sample() noexcept {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    ProcSample s;
    s.user_us = static_cast<double>(usage.ru_utime.tv_sec) * 1e6 +
                static_cast<double>(usage.ru_utime.tv_usec);
    s.sys_us = static_cast<double>(usage.ru_stime.tv_sec) * 1e6 +
               static_cast<double>(usage.ru_stime.tv_usec);
    s.vol_ctx_switches = static_cast<std::uint64_t>(usage.ru_nvcsw);
    s.invol_ctx_switches = static_cast<std::uint64_t>(usage.ru_nivcsw);
    s.max_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    return s;
}

} // namespace perfbench

// Replaced global allocation functions.  Every form funnels into the two
// counting allocators above; deallocation is plain free().

void* operator new(std::size_t size) { return perfbench::allocate(size); }
void* operator new[](std::size_t size) { return perfbench::allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    try {
        return perfbench::allocate(size);
    } catch (...) {
        return nullptr;
    }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    try {
        return perfbench::allocate(size);
    } catch (...) {
        return nullptr;
    }
}
void* operator new(std::size_t size, std::align_val_t align) {
    return perfbench::allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return perfbench::allocate_aligned(size, align);
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
    try {
        return perfbench::allocate_aligned(size, align);
    } catch (...) {
        return nullptr;
    }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
    try {
        return perfbench::allocate_aligned(size, align);
    } catch (...) {
        return nullptr;
    }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
    std::free(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
    std::free(p);
}
