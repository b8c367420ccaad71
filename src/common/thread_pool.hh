/**
 * @file
 * Work-stealing thread pool.
 *
 * Each worker owns a deque: the owner pushes and pops at the back
 * (LIFO, cache-friendly), idle workers steal from the front of a
 * victim's deque (FIFO, oldest work first). Submission round-robins
 * across the worker deques so a sweep's jobs start evenly spread and
 * stealing only happens when the load is imbalanced.
 *
 * The pool makes no ordering promises — callers that need
 * deterministic output (the sweep engine) index results by submission
 * slot rather than completion order.
 */

#ifndef ELFSIM_COMMON_THREAD_POOL_HH
#define ELFSIM_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace elfsim {

/** Fixed-size work-stealing thread pool. */
class ThreadPool
{
  public:
    /** Spawn @a threads workers; 0 means one per hardware thread. */
    explicit ThreadPool(unsigned threads = 0);

    /** Waits for all submitted tasks, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue a task. Safe to call from any thread. */
    void submit(std::function<void()> task);

    /**
     * Block until every submitted task has finished. If any task
     * threw, the first captured exception is rethrown here (a
     * backstop — the sweep engine catches per-job errors itself, so
     * an exception reaching the pool means a bug, e.g. a throwing
     * cell observer); the remaining tasks still run to completion
     * first.
     */
    void wait();

    unsigned threadCount() const { return nThreads; }

    /** Hardware concurrency, never less than 1. */
    static unsigned hardwareThreads();

  private:
    /** One worker's deque; the mutex only guards this deque. */
    struct Worker
    {
        std::mutex mtx;
        std::deque<std::function<void()>> tasks;
    };

    /** Pop own work (back) or steal from a victim (front). */
    bool grabTask(unsigned self, std::function<void()> &out);
    void workerLoop(unsigned self);

    // Set before any worker spawns and immutable afterwards: workers
    // read these concurrently with the constructor's emplace loop.
    unsigned nThreads = 0;
    std::vector<std::unique_ptr<Worker>> workers;

    std::vector<std::thread> threads;

    // Pool-wide bookkeeping; poolMtx also serializes sleep/wake so
    // submit() cannot slip a notification past a worker checking the
    // predicate.
    std::mutex poolMtx;
    std::condition_variable workCv; ///< workers sleep here
    std::condition_variable idleCv; ///< wait() sleeps here
    std::size_t queued = 0;         ///< submitted, not yet started
    std::size_t unfinished = 0;     ///< submitted, not yet completed
    bool stopping = false;
    unsigned nextWorker = 0;        ///< round-robin submission cursor
    std::exception_ptr firstError;  ///< first task exception (backstop)
};

} // namespace elfsim

#endif // ELFSIM_COMMON_THREAD_POOL_HH
