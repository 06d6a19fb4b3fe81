# CTest script for confmaskd's flag checks: a numeric flag whose value is not
# one whole number in range must exit 2 naming the flag, leaving no socket
# and no cache directory. A daemon that accepts the value starts serving
# instead; the timeout stops it and the check fails.
#   cmake -DDAEMON=<path-to-confmaskd> -DWORK_DIR=<scratch> -P check_daemon_params.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(SOCK "${WORK_DIR}/d.sock")
set(CACHE_DIR "${WORK_DIR}/cache")
foreach(refusal --cache-budget=10GB --cache-budget=0 --idle-timeout-ms=5s
                --max-pending=1e3 --max-concurrent-jobs=two --max-line-bytes=64k
                --peer-timeout-ms=600001 --jobs=0)
  string(REPLACE "=" ";" args "${refusal}")
  list(GET args 0 flag)
  execute_process(COMMAND "${DAEMON}" --socket "${SOCK}" --cache-dir "${CACHE_DIR}"
                          ${args}
                  RESULT_VARIABLE result ERROR_VARIABLE stderr TIMEOUT 10)
  string(FIND "${stderr}" "invalid ${flag} " named)
  if(NOT result EQUAL 2 OR named EQUAL -1 OR EXISTS "${SOCK}" OR EXISTS "${CACHE_DIR}")
    message(FATAL_ERROR "${refusal}: want exit 2, the flag named and nothing "
                        "written; got exit '${result}', stderr:\n${stderr}")
  endif()
endforeach()

# Valid values parse: without --cache-dir the daemon exits 2 on the usage.
execute_process(COMMAND "${DAEMON}" --socket "${SOCK}" --cache-budget 4096
                        --idle-timeout-ms 0 --max-pending 8 --max-line-bytes 64
                        --peer-timeout-ms 600000 --jobs 1
                RESULT_VARIABLE result ERROR_VARIABLE stderr TIMEOUT 10)
if(NOT result EQUAL 2 OR stderr MATCHES "invalid" OR EXISTS "${SOCK}")
  message(FATAL_ERROR "valid values: want the usage alone; got exit "
                      "'${result}', stderr:\n${stderr}")
endif()
