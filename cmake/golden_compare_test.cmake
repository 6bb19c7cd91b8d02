# ctest helper: run unison_sim with ARGS, writing its output to
# WORK_DIR/<golden name>, and byte-compare it against GOLDEN. Any
# change in simulated behaviour shows up as a failure here, so tier-1
# catches drift in a golden without the separate check_goldens.sh run.
# Invoked as:
#   cmake -DUNISON_SIM_BIN=<path> -DGOLDEN=<goldens/x.json>
#         -DARGS="<unison_sim args>" -DWORK_DIR=<dir>
#         -P golden_compare_test.cmake
foreach(var UNISON_SIM_BIN GOLDEN ARGS WORK_DIR)
  if(NOT ${var})
    message(FATAL_ERROR "${var} not set")
  endif()
endforeach()
file(MAKE_DIRECTORY ${WORK_DIR})
get_filename_component(name ${GOLDEN} NAME)
set(out ${WORK_DIR}/${name})

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND ${UNISON_SIM_BIN} ${args} --out ${out}
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "unison_sim ${ARGS} failed (${rc}):\n${err}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${out}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${out} differs from ${GOLDEN}; compare them "
                      "with diff, or regenerate the golden with "
                      "scripts/check_goldens.sh <build-dir> --update "
                      "if the change is intended")
endif()
