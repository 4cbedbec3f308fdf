#pragma once
// Bounded multi-producer/single-consumer FIFO queue.
//
// The threaded fleet runtime (serve/threaded_fleet.hpp) uses one instance
// per direction and per worker: the driver thread pushes epoch-control
// messages into a worker's inbox, and the worker pushes its epoch report
// back over its outbox. Both directions are actually
// single-producer/single-consumer today; the queue is written to the
// stronger MPSC contract so future multi-driver experiments don't need a
// new primitive.
//
// Contract:
//   - push() blocks while the queue is full (bounded backpressure) and
//     throws std::runtime_error if the queue was closed — a producer
//     writing into a closed queue is a protocol bug, not a race.
//   - pop() blocks while the queue is empty and returns false only once
//     the queue is closed AND drained, so no message is ever lost.
//   - FIFO order is total per queue: messages pushed by one producer are
//     consumed in push order.
//
// Plain mutex + two condition variables: the payloads (epoch reports)
// are heavyweight enough that lock-free buys nothing here, and
// the simple implementation is trivially TSan-clean.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace llmq::util {

template <typename T>
class MpscQueue {
 public:
  explicit MpscQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  /// Blocks while full. Throws if the queue has been closed.
  void push(T value) {
    std::unique_lock<std::mutex> lk(mu_);
    not_full_.wait(lk, [&] { return closed_ || items_.size() < capacity_; });
    if (closed_) throw std::runtime_error("MpscQueue: push after close");
    items_.push_back(std::move(value));
    lk.unlock();
    not_empty_.notify_one();
  }

  /// Blocks while empty. Returns false once closed and fully drained.
  bool pop(T& out) {
    std::unique_lock<std::mutex> lk(mu_);
    not_empty_.wait(lk, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;  // closed and drained
    out = std::move(items_.front());
    items_.pop_front();
    lk.unlock();
    not_full_.notify_one();
    return true;
  }

  /// Non-blocking pop; returns false when empty (queue may still be open).
  bool try_pop(T& out) {
    std::lock_guard<std::mutex> lk(mu_);
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return true;
  }

  /// Wakes every blocked producer (throws) and the consumer (drains, then
  /// sees false). Idempotent.
  void close() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return items_.size();
  }

  std::size_t capacity() const { return capacity_; }

  bool closed() const {
    std::lock_guard<std::mutex> lk(mu_);
    return closed_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  const std::size_t capacity_;
  bool closed_ = false;
};

}  // namespace llmq::util
