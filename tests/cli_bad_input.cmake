# Runs clfd_cli on bad input and checks that every case exits 2 with its
# message before doing any work:
#   cmake -DCLI=path/to/clfd_cli -DWORK_DIR=dir -P cli_bad_input.cmake
# Only malformed --threads values and values below 1 are tried; those
# start no thread.

file(WRITE "${WORK_DIR}/empty_split.txt"
     "clfd-dataset v1\nvocab 1\nact0\nsessions 0\n")
set(empty "${WORK_DIR}/empty_split.txt")
set(unused "${WORK_DIR}/cli_bad_input_unused.txt")
file(REMOVE "${unused}")

function(expect_rejected message)
  execute_process(COMMAND "${CLI}" ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  string(FIND "${err}" "${message}" at)
  if(NOT rc EQUAL 2 OR at EQUAL -1)
    list(JOIN ARGN " " args)
    message(SEND_ERROR "clfd_cli ${args}: exit ${rc}, stderr '${err}'; "
                       "want exit 2 and '${message}'")
  endif()
endfunction()

set(gen generate --dataset wiki --train "${unused}")
foreach(scale abc 0.02x -1 0 1.5 nan)
  expect_rejected("bad --scale value '${scale}': want a number in (0, 1]"
                  ${gen} --scale ${scale})
endforeach()
foreach(seed x -1 1.5 18446744073709551616)
  expect_rejected("bad --seed value '${seed}': want an integer in [0, 2^64)"
                  ${gen} --seed ${seed})
endforeach()
expect_rejected("bad --fault-seed value 'x'"
                ${gen} --fault-plan=run.epoch@3 --fault-seed=x)
foreach(threads abc 0 -2 2x)
  expect_rejected("bad --threads value '${threads}': want an integer >= 1"
                  ${gen} --threads=${threads})
endforeach()
foreach(dim -3 0 abc)
  expect_rejected("bad --dim value '${dim}': want an integer >= 1"
                  correct --train "${empty}" --dim ${dim})
endforeach()
expect_rejected("bad --checkpoint-interval value '0'"
                run --train "${empty}" --test "${empty}"
                --checkpoint-interval 0)

# A seed past INT_MAX is accepted; training then refuses the empty split.
expect_rejected("empty training split"
                correct --train "${empty}" --seed 3000000000)
expect_rejected("empty training split"
                run --model CLFD --train "${empty}" --test "${empty}")
if(EXISTS "${unused}")
  message(SEND_ERROR "a rejected generate wrote ${unused}")
endif()
