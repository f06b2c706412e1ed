// raw-sync fixture: raw standard-library synchronization in first-party
// code. util::Mutex keeps thread-safety analysis in the loop.
#include <mutex>

namespace fixture {

class Queue {
 public:
  void push(int v);

 private:
  std::mutex mu_;  // LINT-EXPECT: raw-sync
};

}  // namespace fixture
