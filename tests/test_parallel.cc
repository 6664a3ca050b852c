/**
 * @file
 * sim::parallelFor, the batch worker loop of the fleet engine and
 * the sweep runners: every index runs exactly once, the calling
 * thread works too, and the lowest failing index's exception is the
 * one rethrown, whatever the worker count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/parallel.hh"

namespace {

using iocost::sim::parallelFor;

TEST(ParallelFor, EveryIndexRunsExactlyOnce)
{
    for (const unsigned workers : {0u, 1u, 3u, 4u, 16u}) {
        constexpr size_t kN = 1000;
        std::vector<std::atomic<int>> runs(kN);
        parallelFor(kN, workers, [&](size_t i) { ++runs[i]; });
        for (size_t i = 0; i < kN; ++i)
            ASSERT_EQ(runs[i].load(), 1) << "index " << i
                                         << " workers " << workers;
    }
    bool called = false;
    parallelFor(0, 4, [&](size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ParallelFor, CallingThreadTakesPart)
{
    // Each index waits until every worker holds one, so each of the
    // kWorkers threads runs exactly one index. Without the caller
    // among them the wait would time out one thread short.
    constexpr unsigned kWorkers = 4;
    std::atomic<unsigned> arrived{0};
    std::mutex mu;
    std::set<std::thread::id> ids;
    parallelFor(kWorkers, kWorkers, [&](size_t) {
        ++arrived;
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(10);
        while (arrived.load() < kWorkers &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        std::lock_guard<std::mutex> lock(mu);
        ids.insert(std::this_thread::get_id());
    });
    EXPECT_EQ(arrived.load(), kWorkers);
    EXPECT_EQ(ids.size(), kWorkers);
    EXPECT_EQ(ids.count(std::this_thread::get_id()), 1u);

    // One worker means the caller alone.
    std::set<std::thread::id> solo;
    parallelFor(8, 1, [&](size_t) {
        solo.insert(std::this_thread::get_id());
    });
    EXPECT_EQ(solo,
              std::set<std::thread::id>{std::this_thread::get_id()});
}

TEST(ParallelFor, LowestFailingIndexRethrowsAfterAllRan)
{
    for (const unsigned workers : {1u, 2u, 4u}) {
        constexpr size_t kN = 64;
        std::atomic<size_t> ran{0};
        try {
            parallelFor(kN, workers, [&](size_t i) {
                ++ran;
                // Higher failing indices throw first on every
                // schedule: they do no work before throwing.
                if (i == 50 || i == 23)
                    throw std::runtime_error(std::to_string(i));
                if (i == 7) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(20));
                    throw std::invalid_argument("7");
                }
            });
            FAIL() << "no exception at workers " << workers;
        } catch (const std::invalid_argument &err) {
            EXPECT_STREQ(err.what(), "7") << "workers " << workers;
        }
        EXPECT_EQ(ran.load(), kN) << "workers " << workers;
    }
}

} // namespace
