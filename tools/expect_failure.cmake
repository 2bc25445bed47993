# Run one tool and require it to fail cleanly: exit status 1 and stderr
# matching a regex (no abort, no usage exit 2).
#   cmake -DMATCH=<regex> -P expect_failure.cmake -- <tool> [args...]
set(cmd "")
set(seen_sep FALSE)
foreach(i RANGE ${CMAKE_ARGC})
  if(seen_sep AND DEFINED CMAKE_ARGV${i})
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(seen_sep TRUE)
  endif()
endforeach()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "1")
  message(FATAL_ERROR "expected exit status 1, got '${rc}'\nstdout: ${out}\nstderr: ${err}")
endif()
if(NOT err MATCHES "${MATCH}")
  message(FATAL_ERROR "stderr does not match '${MATCH}':\n${err}")
endif()
