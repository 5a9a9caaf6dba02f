# Runs a table bench with each malformed or out-of-range scale knob or
# CLFD_THREADS value and checks that every case exits 2 with its message
# before doing any work:
#   cmake -DBENCH=path/to/bench_table3_label_corrector -DWORK_DIR=dir
#         -P bench_bad_env.cmake

function(expect_rejected name value want)
  execute_process(COMMAND ${CMAKE_COMMAND} -E env
                          CLFD_METRICS_SIDECAR=0 "${name}=${value}" "${BENCH}"
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  set(message "bad ${name} value '${value}': want ${want}")
  string(FIND "${err}" "${message}" at)
  if(NOT rc EQUAL 2 OR at EQUAL -1 OR NOT out STREQUAL "")
    message(SEND_ERROR "${name}=${value}: exit ${rc}, stdout '${out}', "
                       "stderr '${err}'; want exit 2, no output and "
                       "'${message}'")
  endif()
endfunction()

foreach(seeds -1 0 abc 2x)
  expect_rejected(CLFD_SEEDS ${seeds} "an integer >= 1")
endforeach()
foreach(scale -1 0 abc 1.5)
  expect_rejected(CLFD_SCALE ${scale} "a number in (0, 1]")
endforeach()
foreach(epoch_scale 0 abc)
  expect_rejected(CLFD_EPOCH_SCALE ${epoch_scale} "a number in (0, 1]")
endforeach()
# Only malformed values and values below 1: none of them starts a thread.
foreach(threads abc 0 -3 2x)
  expect_rejected(CLFD_THREADS ${threads} "an integer >= 1")
endforeach()
