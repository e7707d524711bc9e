# Negative compile test for the thread-safety annotation gate.
#
# Asserts, with the configured compiler:
#   1. (probe)    -Wthread-safety is accepted — otherwise SKIP (matched by the test's
#                 SKIP_REGULAR_EXPRESSION): gcc has no thread-safety analysis; the gate
#                 lives in the clang static-analysis CI job, and this skip keeps local gcc
#                 ctest runs green without weakening it.
#   2. (control)  fixtures/thread_safety_clean.cc compiles under -Werror=thread-safety —
#                 the flag is active and the Mutex/MutexLock wrappers are sound.
#   3. (negative) fixtures/thread_safety_violation.cc FAILS to compile — a seeded
#                 GUARDED_BY write without the lock is rejected. If this ever *compiles*,
#                 the annotations have rotted into no-ops and the test fails loudly.
#
# Run via ctest (dpack_thread_safety_compile) with:
#   cmake -DDPACK_SOURCE_DIR=<repo> -DDPACK_CXX_COMPILER=<c++> -P this_file.cmake

if(NOT DPACK_SOURCE_DIR OR NOT DPACK_CXX_COMPILER)
  message(FATAL_ERROR "need -DDPACK_SOURCE_DIR=<repo root> -DDPACK_CXX_COMPILER=<c++>")
endif()

set(FIXTURES ${DPACK_SOURCE_DIR}/tests/lint/fixtures)
set(BASE_FLAGS -std=c++20 -fsyntax-only -I${DPACK_SOURCE_DIR})
set(TSA_FLAGS -Wthread-safety -Werror=thread-safety)

# 1. Probe: does the compiler know -Wthread-safety at all?
execute_process(
  COMMAND ${DPACK_CXX_COMPILER} ${BASE_FLAGS} -Werror ${TSA_FLAGS}
          ${FIXTURES}/thread_safety_clean.cc
  RESULT_VARIABLE probe_rc
  ERROR_VARIABLE probe_err)
if(NOT probe_rc EQUAL 0 AND probe_err MATCHES "(unrecognized|unknown).*(option|argument)")
  # The "SKIP:" token is matched by the ctest SKIP_REGULAR_EXPRESSION property.
  message(STATUS "SKIP: ${DPACK_CXX_COMPILER} does not support -Wthread-safety "
                 "(the clang static-analysis CI job runs this gate)")
  return()
endif()

# 2. Positive control: the clean fixture must compile with the analysis enforced.
if(NOT probe_rc EQUAL 0)
  message(FATAL_ERROR
          "thread_safety_clean.cc must compile under -Werror=thread-safety; the wrappers "
          "or annotations are broken:\n${probe_err}")
endif()

# 3. The seeded violation must FAIL to compile.
execute_process(
  COMMAND ${DPACK_CXX_COMPILER} ${BASE_FLAGS} ${TSA_FLAGS}
          ${FIXTURES}/thread_safety_violation.cc
  RESULT_VARIABLE violation_rc
  ERROR_VARIABLE violation_err)
if(violation_rc EQUAL 0)
  message(FATAL_ERROR
          "thread_safety_violation.cc COMPILED under -Werror=thread-safety: the seeded "
          "GUARDED_BY violation was not rejected, so the annotation gate has rotted "
          "(macros expanding to nothing under clang, or the flag being dropped).")
endif()
if(NOT violation_err MATCHES "thread-safety")
  message(FATAL_ERROR
          "thread_safety_violation.cc failed for a reason other than thread-safety "
          "analysis — fixture bitrot, fix it:\n${violation_err}")
endif()

message(STATUS "thread-safety negative compile test passed: clean fixture compiles, "
               "seeded violation rejected")
