#include "sim/parallel.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

namespace iocost::sim {

void
parallelFor(size_t n, unsigned workers,
            const std::function<void(size_t)> &fn)
{
    if (n == 0)
        return;
    const size_t threads = std::clamp<size_t>(workers, 1, n);

    std::vector<std::exception_ptr> errors(n);
    std::atomic<size_t> next{0};
    auto worker = [&] {
        for (;;) {
            const size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(threads - 1);
    for (size_t t = 1; t < threads; ++t)
        pool.emplace_back(worker);
    worker();
    for (std::thread &t : pool)
        t.join();

    for (const std::exception_ptr &err : errors) {
        if (err)
            std::rethrow_exception(err);
    }
}

} // namespace iocost::sim
