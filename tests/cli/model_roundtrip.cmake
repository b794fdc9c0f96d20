# cli.model_roundtrip: the model file round trip through the shipped
# binary, at toy scale. `align` and `tune --model-out` write
# model::Snapshot files, `recommend`, `tune` and `publish` read them,
# `publish` lands one as the registry's first version, and a file that is
# not a snapshot is refused with the snapshot loader's diagnosis and a
# non-zero exit.
#
#   cmake -DCLI=<path to insightalign> -DWORK_DIR=<scratch dir>
#         -P model_roundtrip.cmake

foreach(var CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is not set")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Runs the CLI in WORK_DIR; stores exit code and stdout+stderr in
# <prefix>_rc / <prefix>_out.
function(run_cli prefix)
  execute_process(COMMAND "${CLI}" ${ARGN}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE out)
  set(${prefix}_rc "${rc}" PARENT_SCOPE)
  set(${prefix}_out "${out}" PARENT_SCOPE)
endfunction()

function(expect_ok prefix what)
  if(NOT ${prefix}_rc EQUAL 0)
    message(FATAL_ERROR "${what} failed (${${prefix}_rc}):\n${${prefix}_out}")
  endif()
endfunction()

# "IASNAP1\0", the snapshot magic, as the first 8 bytes in hex.
set(snapshot_magic "4941534e41503100")
function(expect_snapshot path)
  if(NOT EXISTS "${path}")
    message(FATAL_ERROR "${path} was not written")
  endif()
  file(READ "${path}" head LIMIT 8 HEX)
  if(NOT head STREQUAL snapshot_magic)
    message(FATAL_ERROR "${path} is not a snapshot (starts ${head})")
  endif()
endfunction()

run_cli(align align --designs 1-2 --cells 400 --points 6 --epochs 1
        --pairs 8 --model m.snap --dataset a.bin)
expect_ok(align "align")
expect_snapshot("${WORK_DIR}/m.snap")

run_cli(rec recommend --model m.snap --dataset a.bin --design 2 --k 2
        --cells 400)
expect_ok(rec "recommend --model m.snap")
if(NOT rec_out MATCHES "Recipe set")
  message(FATAL_ERROR "recommend printed no table:\n${rec_out}")
endif()

run_cli(tune tune --model m.snap --dataset a.bin --design 2 --cells 400
        --iterations 1 --model-out t.snap)
expect_ok(tune "tune --model-out t.snap")
expect_snapshot("${WORK_DIR}/t.snap")

run_cli(pub publish --registry-dir reg --model m.snap --meta roundtrip)
expect_ok(pub "publish --model m.snap")
expect_snapshot("${WORK_DIR}/reg/v00000001.snap")
if(NOT pub_out MATCHES "as v1 ")
  message(FATAL_ERROR "publish did not report v1:\n${pub_out}")
endif()

# Eight bytes a raw-count loader would read as a count of ~4.6e18
# doubles. The snapshot reader must refuse it at the magic.
file(WRITE "${WORK_DIR}/hostile.bin" "@@@@@@@@")
run_cli(bad_pub publish --registry-dir reg --model hostile.bin)
run_cli(bad_rec recommend --model hostile.bin --dataset a.bin --design 2
        --cells 400)
foreach(prefix bad_pub bad_rec)
  if(${prefix}_rc EQUAL 0)
    message(FATAL_ERROR "${prefix}: hostile model file accepted")
  endif()
  if(NOT ${prefix}_out MATCHES "bad magic \\(not a snapshot file\\)")
    message(FATAL_ERROR "${prefix}: no snapshot diagnosis:\n${${prefix}_out}")
  endif()
endforeach()
if(EXISTS "${WORK_DIR}/reg/v00000002.snap")
  message(FATAL_ERROR "the hostile file was published")
endif()
