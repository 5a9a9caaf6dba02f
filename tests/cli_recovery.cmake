# Drives clfd_cli's recovery paths end to end on a small wiki dataset:
#   cmake -DCLI=path/to/clfd_cli -DWORK_DIR=dir -P cli_recovery.cmake
# - a run crashed by --fault-plan=run.epoch@7 exits 3, and rerunning it
#   resumes from its checkpoint to the uninterrupted run's result line;
# - rerunning it with another --dim finds a snapshot that does not fit the
#   model and exits 2 with a one-line message and no result line;
# - an injected allocation failure under --watchdog is rolled back once,
#   counted in recovery.watchdog.rollbacks, and the run exits 0;
# - sticky NaN poisoning under --watchdog exhausts the retry ladder and
#   exits 4 instead of returning an untrained model;
# - without --watchdog nothing retries, so sticky NaN poisoning and an
#   injected allocation failure each exit 4 with a one-line message and
#   print no result line.

set(dir "${WORK_DIR}/cli_recovery")
file(REMOVE_RECURSE "${dir}")
file(MAKE_DIRECTORY "${dir}")
set(train "${dir}/train.txt")
set(test "${dir}/test.txt")

# Runs clfd_cli with ARGN; sets `rc`, `out` and `err` in the caller.
function(cli)
  execute_process(COMMAND "${CLI}" ${ARGN} WORKING_DIRECTORY "${dir}"
                  RESULT_VARIABLE code OUTPUT_VARIABLE stdout
                  ERROR_VARIABLE stderr)
  set(rc "${code}" PARENT_SCOPE)
  set(out "${stdout}" PARENT_SCOPE)
  set(err "${stderr}" PARENT_SCOPE)
endfunction()

function(expect_exit want what)
  if(NOT rc EQUAL want)
    message(SEND_ERROR "${what}: exit ${rc}, want ${want}\n"
                       "stdout: ${out}\nstderr: ${err}")
  endif()
endfunction()

# The "CLFD: F1 ..." result line of the last run.
function(result_line var)
  string(REGEX MATCH "CLFD: [^\n]*" line "${out}")
  set(${var} "${line}" PARENT_SCOPE)
endfunction()

cli(generate --dataset wiki --scale 0.02 --noise uniform:0.2 --seed 7
    --train "${train}" --test "${test}")
expect_exit(0 "generate")
set(run run --model CLFD --train "${train}" --test "${test}" --budget fast)

cli(${run})
expect_exit(0 "uninterrupted run")
result_line(uninterrupted)
if(uninterrupted STREQUAL "")
  message(SEND_ERROR "uninterrupted run printed no result line: ${out}")
endif()

# Crash at the 7th epoch boundary, then resume with the same command minus
# the crash trigger.
cli(${run} --checkpoint-dir=ck --fault-plan=run.epoch@7)
expect_exit(3 "crashed run")
cli(${run} --checkpoint-dir=ck)
expect_exit(0 "resumed run")
result_line(resumed)
if(NOT resumed STREQUAL uninterrupted)
  message(SEND_ERROR "resumed run printed '${resumed}', "
                     "uninterrupted run '${uninterrupted}'")
endif()

cli(${run} --checkpoint-dir=ck --dim 16)
expect_exit(2 "run on a snapshot of another --dim")
if(NOT err MATCHES "shape-mismatch")
  message(SEND_ERROR "run on a snapshot of another --dim: stderr lacks "
                     "'shape-mismatch': ${err}")
endif()
result_line(line)
if(NOT line STREQUAL "")
  message(SEND_ERROR "run on a snapshot of another --dim printed '${line}'")
endif()

cli(${run} --watchdog --fault-plan=arena.alloc@300
    --metrics-out=alloc.metrics.json)
expect_exit(0 "run with one allocation failure")
file(READ "${dir}/alloc.metrics.json" metrics)
string(JSON rollbacks ERROR_VARIABLE missing
       GET "${metrics}" counters recovery.watchdog.rollbacks)
if(NOT rollbacks EQUAL 1)
  message(SEND_ERROR "recovery.watchdog.rollbacks is '${rollbacks}' "
                     "${missing}, want 1")
endif()

cli(${run} --watchdog --fault-plan=op.nan@1+)
expect_exit(4 "run with sticky NaN poisoning")
string(FIND "${err}" "watchdog abort" at)
if(at EQUAL -1)
  message(SEND_ERROR "sticky NaN run: stderr lacks 'watchdog abort': ${err}")
endif()

foreach(fault "op.nan@1+" "arena.alloc@300")
  cli(${run} "--fault-plan=${fault}")
  expect_exit(4 "run with ${fault} and no watchdog")
  result_line(line)
  if(NOT line STREQUAL "")
    message(SEND_ERROR "run with ${fault} and no watchdog printed '${line}'")
  endif()
  if(NOT err MATCHES "run failed: [^\n]+\n")
    message(SEND_ERROR "run with ${fault} and no watchdog: stderr lacks "
                       "'run failed: ...': ${err}")
  endif()
endforeach()
