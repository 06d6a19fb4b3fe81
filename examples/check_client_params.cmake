# CTest script for confmask-client's argument checks: a job flag that is not
# exactly one number within option_error's bounds, or a job id that is not
# one whole number, must exit 2 and name it. No daemon listens on the
# socket, so a client that sends the request anyway fails on the transport
# instead.
#   cmake -DCLIENT=<path-to-confmask-client> -DCLI=<path-to-confmask_cli>
#         -DWORK_DIR=<scratch> -P check_client_params.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
set(DEMO "${WORK_DIR}/demo")
execute_process(COMMAND "${CLI}" --demo "${DEMO}" RESULT_VARIABLE result)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "confmask_cli --demo failed: ${result}")
endif()

# Each case: what stderr must name, then the client's arguments (any
# readable file serves as the resubmit's diff, which is never sent).
foreach(case "--kr|submit|${DEMO}|--kr|abc" "--kh|submit|${DEMO}|--kh|0"
             "--p|submit|${DEMO}|--p|7" "--seed|submit|${DEMO}|--seed|-1"
             "--fake-routers|submit|${DEMO}|--fake-routers|2x"
             "--deadline-ms|submit|${DEMO}|--deadline-ms|soon"
             "--kr|resubmit|0123456789abcdef|${CMAKE_CURRENT_LIST_FILE}|--kr|1.5"
             "job id|status|abc" "job id|wait|-3" "job id|result|12x")
  string(REPLACE "|" ";" args "${case}")
  list(POP_FRONT args named)
  execute_process(COMMAND "${CLIENT}" --socket "${WORK_DIR}/none.sock" ${args}
                  RESULT_VARIABLE result ERROR_VARIABLE stderr TIMEOUT 60)
  string(FIND "${stderr}" "${named}" found)
  if(NOT result EQUAL 2 OR found EQUAL -1)
    message(FATAL_ERROR "${args}: want exit 2 naming '${named}'; got exit "
                        "'${result}', stderr:\n${stderr}")
  endif()
endforeach()
