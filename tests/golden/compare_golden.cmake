# Reruns ariadne_sim and byte-compares its JSON report with a committed
# golden (see README.md in this directory).
#
#   cmake -DSIM=<ariadne_sim> -DARGS="<cli args>" -DGOLDEN=<file.json>
#         -DOUT=<report.json> -P compare_golden.cmake
#
# Run it from the repository root: ARGS name scenarios/*.cfg relative
# to it.
separate_arguments(sim_args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND ${SIM} ${sim_args} --json ${OUT} --quiet
  RESULT_VARIABLE sim_rc)
if(NOT sim_rc EQUAL 0)
  message(FATAL_ERROR "ariadne_sim ${ARGS} failed: ${sim_rc}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUT}
  RESULT_VARIABLE cmp_rc)
if(NOT cmp_rc EQUAL 0)
  message(FATAL_ERROR
    "${OUT} differs from ${GOLDEN}. Re-record only for an intentional "
    "behaviour change (tests/golden/README.md).")
endif()
