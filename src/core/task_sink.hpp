// Task sinks: where the hybrid driver's step graph goes.
//
// The factorization is written once, as a stream of tasks — a kernel
// closure, the tiles it touches, and scheduling attributes — emitted into a
// TaskSink (see core/step_graph.hpp). The inline sink below runs each task
// the moment it is emitted; the engine sink (runtime/parallel_hybrid.cpp)
// submits it to the dataflow engine, which orders tasks by the declared
// dependences. Emission order is a topological order of the graph, so both
// sinks execute a dependence-equivalent schedule of the same kernels on the
// same tiles, and agree bitwise.
//
// Dependence declarations are plain data, so they live here rather than in
// runtime/: the step graph declares them without knowing about the engine.
#pragma once

#include <functional>
#include <utility>
#include <vector>

namespace luqr::core {

/// Declared access mode of one task on one datum.
enum class Access { Read, Write, ReadWrite };

/// One (datum, mode) pair; the datum is identified by its storage address
/// (tile data pointers are unique and stable).
struct Dep {
  const void* key = nullptr;
  Access mode = Access::Read;
};

/// Scheduling class of an emitted task, graded by how directly it gates the
/// next panel decision. Only the engine sink reads it (to pick a priority
/// lane); it never affects results.
enum class TaskRole {
  Convert, ///< dense-to-tile copy of tile column j, ahead of step 0
  Panel,   ///< backup + panel factorization + criterion: the decision chain
  Gate,    ///< per-step kernels every update waits on (eliminates, QR
           ///< factor kernels, the panel restore)
  Apply,   ///< the diagonal-row apply of trailing column j
  Update,  ///< a trailing update of column j
};

/// Attributes of one emitted task.
struct TaskInfo {
  const char* name = "";
  TaskRole role = TaskRole::Update;
  int k = 0;  ///< step index
  int j = 0;  ///< trailing tile column (Apply/Update)
};

/// Consumer of an emitted task stream.
class TaskSink {
 public:
  virtual ~TaskSink() = default;
  /// One task: `fn` may run once every earlier-emitted task whose declared
  /// accesses conflict with `deps` has run.
  virtual void emit(std::function<void()> fn, const std::vector<Dep>& deps,
                    const TaskInfo& info) = 0;
  /// Called by a decision task once it has emitted everything that depends
  /// on its decision. `next` emits the rest of the graph; an empty `next`
  /// marks the end of the graph.
  virtual void advance(std::function<void()> next) = 0;
};

/// Runs every task at emission, on the calling thread. Continuations handed
/// to advance() are run by run()'s loop, not from inside the task that
/// produced them, so the stack depth stays constant however many steps the
/// graph has.
class InlineSink final : public TaskSink {
 public:
  void emit(std::function<void()> fn, const std::vector<Dep>&,
            const TaskInfo&) override {
    fn();
  }
  void advance(std::function<void()> next) override { next_ = std::move(next); }

  /// Run `first` and then every continuation, until one is empty.
  void run(std::function<void()> first) {
    next_ = std::move(first);
    while (next_) {
      std::function<void()> step = std::move(next_);
      next_ = nullptr;
      step();
    }
  }

 private:
  std::function<void()> next_;
};

}  // namespace luqr::core
