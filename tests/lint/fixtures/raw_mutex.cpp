// raw-sync fixture: raw standard-library synchronization in first-party
// code. util::Mutex keeps thread-safety analysis in the loop;
// mc_shim::atomic keeps model-checked sources explorable.
#include <atomic>
#include <mutex>

namespace fixture {

class Queue {
 public:
  void push(int v);

 private:
  std::mutex mu_;               // LINT-EXPECT: raw-sync
  std::atomic<int> depth_{0};   // LINT-EXPECT: raw-sync
};

}  // namespace fixture
