// The counters of the forked scoring fleet the grant service once ran. The daemon now
// scores in process (src/service/grant_service.h), so there is no fleet to count: every
// field but admission_rejects stays zero. Kept only because the frozen end-to-end benchmark
// (bench/e2e) includes this header and reads these fields; the next change to that
// benchmark should delete this file along with its reads.

#ifndef SRC_SERVICE_TRANSPORT_H_
#define SRC_SERVICE_TRANSPORT_H_

#include <cstdint>

namespace dpack {

struct ServiceCounters {
  uint64_t messages_sent = 0;      // Always 0: no fleet.
  uint64_t messages_received = 0;  // Always 0: no fleet.
  uint64_t bytes_sent = 0;         // Always 0: no fleet.
  uint64_t bytes_received = 0;     // Always 0: no fleet.
  uint64_t ring_stalls = 0;        // Always 0: no fleet.
  uint64_t score_rounds = 0;       // Always 0: no fleet.
  uint64_t admission_rejects = 0;  // Submissions refused by the admission bound.
};

}  // namespace dpack

#endif  // SRC_SERVICE_TRANSPORT_H_
