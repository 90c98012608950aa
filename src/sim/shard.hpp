// Worker-thread pool for the sharded fleet engine.
//
// One thread per shard, each draining its own FIFO task queue. Tasks for a
// shard therefore execute in exactly the order they were submitted — the
// property the run-ahead engine leans on: a device's next session segment is
// enqueued before any later work that reads its result, so per-device state
// is only ever touched by its owning shard's thread, in submission order.
// Cross-shard ordering is the coordinator's job (it replays results through
// its own heap); the pool promises nothing across shards and needs no
// stealing, futures, or shared queue — which keeps the TSan story simple:
// every task result is published under the completion mutex its consumer
// blocks on.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace upkit::sim {

class ShardPool {
public:
    /// Spawns `shards` worker threads. 0 is pinned up to 1: callers that
    /// want no workers at all shouldn't construct a pool.
    explicit ShardPool(std::size_t shards);
    /// Runs every task still queued, then joins the workers.
    ~ShardPool();

    ShardPool(const ShardPool&) = delete;
    ShardPool& operator=(const ShardPool&) = delete;

    std::size_t shards() const { return workers_.size(); }

    /// Enqueues `task` on shard `shard`'s queue. Tasks on one shard run
    /// sequentially in submission order, on that shard's thread.
    void submit(std::size_t shard, std::function<void()> task);

private:
    struct Worker {
        std::mutex mu;
        std::condition_variable cv;
        std::deque<std::function<void()>> queue;
        bool stop = false;
        std::thread thread;
    };

    void run(Worker& w);

    std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace upkit::sim
