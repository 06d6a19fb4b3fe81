# CTest driver for confmask_cli's parameter checks: a value that is not a
# whole number, or breaks its flag's bounds (option_error's, --pii 0 or 1,
# --jobs at least 1), must exit 2 (usage), name its flag on stderr and
# write no file; a valid run still exits 0.
#   cmake -DCLI=<path-to-confmask_cli> -DWORK_DIR=<scratch> -P check_cli_params.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
set(DEMO "${WORK_DIR}/demo")
set(OUT "${WORK_DIR}/anon")
set(DIAG "${WORK_DIR}/diagnostics.json")
execute_process(COMMAND "${CLI}" --demo "${DEMO}" RESULT_VARIABLE result)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "confmask_cli --demo failed: ${result}")
endif()

foreach(refusal --kr=abc --kr=0 --kh=0 --p=7 --p=nan --fake-routers=-1
                --jobs=0 --jobs=4x --pii=yes --pii=2)
  string(REPLACE "=" ";" args "${refusal}")
  list(GET args 0 flag)
  execute_process(COMMAND "${CLI}" "${DEMO}" "${OUT}" --diagnostics-json "${DIAG}" ${args}
                  RESULT_VARIABLE result ERROR_VARIABLE stderr)
  string(FIND "${stderr}" "${flag}" named)
  if(NOT result EQUAL 2 OR named EQUAL -1 OR EXISTS "${OUT}" OR EXISTS "${DIAG}")
    message(FATAL_ERROR "${refusal}: want exit 2, the flag named and no file; "
                        "got exit '${result}', stderr:\n${stderr}")
  endif()
endforeach()

execute_process(COMMAND "${CLI}" "${DEMO}" "${OUT}" --kr 1 --kh 1 --p 0.5 --seed 7
                        --fake-routers 0 --jobs 2 --pii 0
                RESULT_VARIABLE result OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
file(GLOB written "${OUT}/*.cfg")
if(NOT result EQUAL 0 OR NOT written)
  message(FATAL_ERROR "valid run: want exit 0 and configs; got exit '${result}'\n"
                      "${stdout}\n${stderr}")
endif()
message(STATUS "10 refused values exit 2 and write nothing; a valid run exits 0")
