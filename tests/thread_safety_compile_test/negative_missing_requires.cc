// MUST NOT COMPILE under -Werror=thread-safety-analysis: calling a
// HYDRA_REQUIRES(mu) function without holding mu breaks the `_locked`
// helper contract (PersistentRunCache) that the annotations turn from a
// naming convention into a compiler-checked one.
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace {

struct Cache {
  hydra::util::Mutex mu;
  int entries HYDRA_GUARDED_BY(mu) = 0;

  void evict_locked() HYDRA_REQUIRES(mu) { --entries; }

  void evict_without_lock() {
    evict_locked();  // error: calling evict_locked() requires `mu`
  }
};

}  // namespace

int main() {
  Cache c;
  c.evict_without_lock();
  return 0;
}
