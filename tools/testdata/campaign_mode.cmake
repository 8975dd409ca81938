# Runs one windowed `gremlin campaign` sweep with the given mode flags and
# checks its --report JSON:
#
#   cmake -DGREMLIN=<cli> -DREPORT=<out.json> [-DMODE="--procs 2"]
#         [-DREFERENCE=<report.json>] [-DPROCS=<n>]
#         [-DSNAPSHOT_HITS=zero|nonzero] -P campaign_mode.cmake
#
# REFERENCE: result_fingerprint must equal that report's. PROCS: the report's
# procs. SNAPSHOT_HITS: whether prefix snapshots were restored. The window
# (faults from 30 ms on) gives every experiment a fault-free prefix, so
# snapshots are eligible.
cmake_minimum_required(VERSION 3.19)

separate_arguments(mode UNIX_COMMAND "${MODE}")
execute_process(
  COMMAND ${GREMLIN} campaign --app buggy-tree --seed 7 --threads 2
          --windows 30ms+0ms ${mode} --report ${REPORT}
  RESULT_VARIABLE status
  OUTPUT_QUIET)
# Exit 1 means some experiment failed, a valid sweep outcome.
if(NOT status EQUAL 0 AND NOT status EQUAL 1)
  message(FATAL_ERROR "gremlin campaign ${MODE} exited with ${status}")
endif()

file(READ ${REPORT} report)
string(JSON fingerprint GET "${report}" result_fingerprint)
string(JSON procs GET "${report}" procs)
string(JSON hits GET "${report}" snapshot_hits)
message(STATUS "campaign ${MODE}: result_fingerprint ${fingerprint}, procs ${procs}, "
               "snapshot_hits ${hits}")

if(DEFINED REFERENCE)
  file(READ ${REFERENCE} reference)
  string(JSON want GET "${reference}" result_fingerprint)
  if(NOT fingerprint STREQUAL want)
    message(FATAL_ERROR
            "result_fingerprint ${fingerprint} differs from ${want}")
  endif()
endif()
if(DEFINED PROCS AND NOT procs EQUAL PROCS)
  message(FATAL_ERROR "report shows procs ${procs}, expected ${PROCS}")
endif()
if(SNAPSHOT_HITS STREQUAL "zero" AND NOT hits EQUAL 0)
  message(FATAL_ERROR "expected no snapshot hits, got ${hits}")
elseif(SNAPSHOT_HITS STREQUAL "nonzero" AND hits EQUAL 0)
  message(FATAL_ERROR "expected snapshot hits, got none")
endif()
