// Task: a fire-and-forget coroutine representing one simulated thread.
//
// Lifecycle: creating a Task leaves the coroutine suspended at its initial
// suspend point.  The owner calls start() exactly once.  When the coroutine
// runs to completion its frame is destroyed from the final awaiter; a Task
// destroyed before start() destroys the unstarted frame.
//
// Exceptions: simulated kernels must not throw; an escaping exception
// terminates the process (a simulation bug, not a recoverable condition).
#pragma once

#include <coroutine>
#include <exception>
#include <utility>

namespace emusim::sim {

class Task {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct promise_type {
    Task get_return_object() { return Task{Handle::from_promise(*this)}; }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      void await_suspend(Handle h) noexcept { h.destroy(); }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() noexcept {}
    void unhandled_exception() noexcept { std::terminate(); }
  };

  Task() = default;
  explicit Task(Handle h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  /// Begin execution.  The Task relinquishes ownership: the coroutine
  /// destroys its own frame on completion.
  void start() {
    auto h = std::exchange(handle_, {});
    h.resume();
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  Handle handle_;
};

}  // namespace emusim::sim
