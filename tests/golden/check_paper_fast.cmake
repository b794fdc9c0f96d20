# golden.paper_fast / golden.paper_full: regenerates the paper results
# (Table IV, Figs. 6 and 7) from a fresh, empty artifact cache and
# byte-compares each harness's stdout with the committed golden file. Every
# run is deterministic, so any difference means QoR (or the model) moved.
#
#   cmake -DBENCH_DIR=<dir of the bench binaries> -DGOLDEN_DIR=<this dir>
#         -DWORK_DIR=<scratch dir> [-DSCALE=fast|full]
#         -P check_paper_fast.cmake
#
# SCALE=fast (the default) runs with INSIGHTALIGN_FAST=1 against the files
# next to this script; SCALE=full runs the paper-scale harnesses against
# full/*.txt. Only full scale shows some paper shapes, e.g. Fig. 6's D10
# starting below its archive's best and overtaking it.
#
# The cache starts empty on purpose: a warm dataset/CV cache would replay
# old QoR and hide a change in the flow. Refresh the goldens only in a
# change that moves QoR on purpose (command in EXPERIMENTS.md).

foreach(var BENCH_DIR GOLDEN_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is not set")
  endif()
endforeach()
if(NOT DEFINED SCALE OR SCALE STREQUAL "fast")
  set(scale_env INSIGHTALIGN_FAST=1)
  set(golden_subdir "")
elseif(SCALE STREQUAL "full")
  set(scale_env --unset=INSIGHTALIGN_FAST)
  set(golden_subdir "full/")
else()
  message(FATAL_ERROR "SCALE must be fast or full, not '${SCALE}'")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/cache")
find_program(DIFF_COMMAND diff)

set(mismatched "")
foreach(bench table4_zero_shot fig6_online_trajectory fig7_online_scatter)
  set(actual "${WORK_DIR}/${bench}.txt")
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E env ${scale_env}
            "INSIGHTALIGN_CACHE_DIR=${WORK_DIR}/cache" "${BENCH_DIR}/${bench}"
    OUTPUT_FILE "${actual}"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${bench} failed (${rc})")
  endif()
  set(golden "${GOLDEN_DIR}/${golden_subdir}${bench}.txt")
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${golden}" "${actual}"
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    list(APPEND mismatched ${bench})
    if(DIFF_COMMAND)
      execute_process(COMMAND "${DIFF_COMMAND}" -u "${golden}" "${actual}")
    endif()
  endif()
endforeach()

if(mismatched)
  message(FATAL_ERROR "output differs from tests/golden for: ${mismatched} "
                      "(actual output kept in ${WORK_DIR})")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
