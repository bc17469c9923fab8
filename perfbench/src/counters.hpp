#pragma once

/// Deterministic process counters for the benchmark binary: allocations
/// seen by the replaced global operator new (counters.cpp, linked into the
/// benchmark executables only) and getrusage samples.

#include <cstdint>
#include <string>

namespace perfbench {

struct AllocCounts {
    std::uint64_t calls = 0;
    std::uint64_t bytes = 0;
};

/// Allocations made so far by every thread of the process.
[[nodiscard]] AllocCounts alloc_counts() noexcept;

/// Performs a known number of allocations and checks the hook saw exactly
/// those on this thread.  False (with `why` set) means allocs_per_op would
/// be wrong, for example because the hook was not linked in.
[[nodiscard]] bool alloc_self_test(std::string& why);

struct ProcSample {
    double user_us = 0.0;
    double sys_us = 0.0;
    std::uint64_t vol_ctx_switches = 0;
    std::uint64_t invol_ctx_switches = 0;
    double max_rss_mb = 0.0;  ///< peak resident set so far
};

[[nodiscard]] ProcSample proc_sample() noexcept;

} // namespace perfbench
