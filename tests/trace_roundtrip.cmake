# CLI round trip between hetflow_run and hetflow_check, run as a ctest:
#
#   cmake -DRUN=<hetflow_run> -DCHECK=<hetflow_check> -DOUT=<dir> \
#         -P trace_roundtrip.cmake
#
# 1. `hetflow_run --chrome-trace` writes the merged trace of a
#    fault-injected run (failed spans) and of a cluster run (transfer
#    tracks); `hetflow_check --trace` must accept both with exit 0.
# 2. The cluster run's `--metrics-out` snapshot, whose attempt counters
#    are copied from RunStats when the run ends, must count the node
#    fault and hold a busy_seconds entry for every device that has a task
#    span in the trace.
# 3. A doctored trace and a doctored audit file, each holding one span
#    that ends before it starts, must make `hetflow_check` exit 1 with a
#    report that names the span.
cmake_minimum_required(VERSION 3.20)  # IN_LIST; quoted if() args are strings
file(MAKE_DIRECTORY "${OUT}")

function(run_ok)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "exit ${rc}: ${ARGN}\n${out}")
  endif()
endfunction()

run_ok("${RUN}" --workflow montage:16 --platform hpc:4,2,0 --sched dmda
       --failure-rate 5 --seed 3 --chrome-trace "${OUT}/faulty.json")
file(READ "${OUT}/faulty.json" faulty)
if(NOT faulty MATCHES "\"kind\":\"failed\"")
  message(FATAL_ERROR "fault-injected trace holds no failed span")
endif()
run_ok("${CHECK}" --trace "${OUT}/faulty.json")

run_ok("${RUN}" --workflow montage:32 --platform cluster:4,4,1
       --sched cluster:dmda --node-fail 0.05@1+0.2
       --chrome-trace "${OUT}/cluster.json"
       --metrics-out "${OUT}/cluster_metrics.json")
file(READ "${OUT}/cluster.json" cluster)
if(NOT cluster MATCHES "\"name\":\"xfer ")
  message(FATAL_ERROR "cluster trace holds no transfer track")
endif()
run_ok("${CHECK}" --trace "${OUT}/cluster.json")

file(READ "${OUT}/cluster_metrics.json" metrics)
string(JSON count LENGTH "${metrics}" metrics)
math(EXPR last "${count} - 1")
set(has_node_failures FALSE)
set(busy_devices "")
foreach(i RANGE ${last})
  string(JSON name GET "${metrics}" metrics ${i} name)
  if(name STREQUAL "node_failures")
    set(has_node_failures TRUE)
  elseif(name STREQUAL "busy_seconds")
    string(JSON device GET "${metrics}" metrics ${i} labels device)
    list(APPEND busy_devices "${device}")
  endif()
endforeach()
if(NOT has_node_failures)
  message(FATAL_ERROR "node-fault run metrics hold no node_failures entry")
endif()
# The trace is one compact line with sorted keys; string(JSON) over its
# ~1000 events is too slow, so match the two event shapes directly.
string(REGEX MATCHALL
       "\"name\":\"[^\"]*\"},\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":[0-9]+"
       tracks "${cluster}")
foreach(track ${tracks})
  string(REGEX REPLACE "^\"name\":\"([^\"]*)\".*\"tid\":([0-9]+)$"
         "\\2;\\1" pair "${track}")
  list(GET pair 0 tid)
  list(GET pair 1 track_${tid})
endforeach()
string(REGEX MATCHALL
       "\"kind\":\"(exec|failed)\",\"task\":[0-9]+},[^{}]*\"tid\":[0-9]+"
       spans "${cluster}")
if(NOT spans)
  message(FATAL_ERROR "cluster trace holds no task span")
endif()
foreach(span ${spans})
  string(REGEX REPLACE "^.*\"tid\":([0-9]+)$" "\\1" tid "${span}")
  if(NOT DEFINED track_${tid})
    message(FATAL_ERROR "task span on unnamed track ${tid}")
  endif()
  if(NOT track_${tid} IN_LIST busy_devices)
    message(FATAL_ERROR
      "device ${track_${tid}} has task spans but no busy_seconds metric")
  endif()
endforeach()

# Longer than any small-string buffer, so the name lives on the heap and
# a dangling view of it is visible to the sanitizers.
set(span "doctored-span-ends-before-it-starts")
file(WRITE "${OUT}/doctored_trace.json"
  "{\"traceEvents\":["
  "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":0,"
  "\"args\":{\"name\":\"cpu0\"}},"
  "{\"ph\":\"X\",\"name\":\"${span}\",\"pid\":1,\"tid\":0,"
  "\"ts\":2000000,\"dur\":-1000000,\"args\":{\"task\":0,\"kind\":\"exec\"}}"
  "]}")
file(WRITE "${OUT}/doctored_audit.json"
  "{\"format\":\"hetflow-audit\",\"version\":1,"
  "\"run\":{\"device_count\":1,\"node_count\":1,\"device_memory_node\":[0],"
  "\"handle_bytes\":[],\"handle_home\":[],\"tasks\":[],"
  "\"spans\":[{\"task\":0,\"name\":\"${span}\",\"device\":0,"
  "\"start\":2,\"end\":1,\"kind\":\"exec\"}]},"
  "\"directory\":{\"node_count\":1,\"handle_bytes\":[],"
  "\"capacity_bytes\":[1024],\"claimed_resident_bytes\":[0],\"states\":\"\"}}")
foreach(mode trace audit)
  execute_process(COMMAND "${CHECK}" --${mode} "${OUT}/doctored_${mode}.json"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "doctored ${mode}: want exit 1, got ${rc}\n${out}")
  endif()
  if(NOT out MATCHES "span '${span}'")
    message(FATAL_ERROR "doctored ${mode}: report does not name the span\n${out}")
  endif()
endforeach()
