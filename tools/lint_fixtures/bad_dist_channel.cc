// Seeded violations shaped like chunk-transport code: a chunk channel
// that (a) hand-allocates its frame buffer instead of going through the
// owning buffer layers, (b) reaches for std:: synchronization the
// thread-safety analysis cannot see, and (c) declares a ccdb::Mutex that
// guards nothing visible. The self-test requires all three to be flagged,
// proving the raw-buffer and mutex rules cover channel-style code.
#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace ccdb {

class BadFrameChannel {
 public:
  void Reserve(size_t bytes) {
    frame_ = new unsigned char[bytes];  // raw-buffer: bypasses owning layer
  }

 private:
  unsigned char* frame_ = nullptr;
  std::mutex mu_;               // std-mutex: invisible to the analysis
  std::condition_variable cv_;  // std-mutex: same rule
  Mutex queue_mu_;              // unguarded-mutex: protects nothing annotated
};

}  // namespace ccdb
