# ctest helper: the full model-file workflow through csmcli.
#
#   stream --dump-models -> pack -> info -> stream --pack -> unpack -> info
#
# plus rejection checks: the pack and CSMB record readers name the version
# byte they reject, and a "csmethod v2" text model (the format of earlier
# releases) is refused as a bad magic, by info and by pack, with its path
# named. Run with:
#   cmake -DCSMCLI=... -DWORK_DIR=... -P pack_roundtrip.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# run_step(<label> zero|nonzero <expected-output-regex> <command...>)
function(run_step label expect_rc expect_out)
  execute_process(
    COMMAND ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  string(APPEND out "${err}")
  if(expect_rc STREQUAL "zero" AND NOT rc EQUAL 0)
    message(FATAL_ERROR "${label}: expected success, got ${rc}:\n${out}")
  endif()
  if(expect_rc STREQUAL "nonzero" AND rc EQUAL 0)
    message(FATAL_ERROR "${label}: expected failure, got exit 0:\n${out}")
  endif()
  if(NOT expect_out STREQUAL "" AND NOT out MATCHES "${expect_out}")
    message(FATAL_ERROR
      "${label}: output does not match \"${expect_out}\":\n${out}")
  endif()
endfunction()

run_step(dump_models zero "dumped [0-9]+ node models"
  "${CSMCLI}" stream fault --scale 0.2 --history 256
  --dump-models "${WORK_DIR}/models")
run_step(pack zero "packed [0-9]+ models"
  "${CSMCLI}" pack "${WORK_DIR}/models" "${WORK_DIR}/fleet.pack")
run_step(info_pack zero "model pack: [0-9]+ models"
  "${CSMCLI}" info "${WORK_DIR}/fleet.pack")
run_step(stream_from_pack zero "models: [0-9]+-model pack"
  "${CSMCLI}" stream fault --scale 0.2 --history 256
  --pack "${WORK_DIR}/fleet.pack")
run_step(unpack zero "unpacked [0-9]+ models"
  "${CSMCLI}" unpack "${WORK_DIR}/fleet.pack" "${WORK_DIR}/unpacked")

file(GLOB unpacked_models "${WORK_DIR}/unpacked/*.csmb")
list(LENGTH unpacked_models n_unpacked)
if(n_unpacked EQUAL 0)
  message(FATAL_ERROR "unpack produced no .csmb files in ${WORK_DIR}/unpacked")
endif()
list(GET unpacked_models 0 first_model)
run_step(info_unpacked zero "method: CS-.*fields:.*\nperm [0-9]+ "
  "${CSMCLI}" info "${first_model}")

# Wrong-version fixtures built from printable bytes: the version slots hold
# the character '9' (byte 57), so both readers must name version 57.
string(REPEAT "x" 40 filler)
file(WRITE "${WORK_DIR}/bad_version.pack" "CSMPACK9${filler}")
run_step(wrong_pack_version nonzero "unsupported model pack version 57"
  "${CSMCLI}" info "${WORK_DIR}/bad_version.pack")
file(WRITE "${WORK_DIR}/bad_version.csmb" "CSMB9${filler}")
run_step(wrong_record_version nonzero "unsupported binary model version 57"
  "${CSMCLI}" info "${WORK_DIR}/bad_version.csmb")
file(MAKE_DIRECTORY "${WORK_DIR}/text_models")
set(text_model "${WORK_DIR}/text_models/node00.csm")
file(WRITE "${text_model}"
  "csmethod v2 cs\nblocks 2\nreal-only 0\nperm 1 0\nlo 1 0\nhi 1 1\n")
run_step(v2_text_rejected nonzero "text_models/node00\\.csm: .*bad magic"
  "${CSMCLI}" info "${text_model}")
run_step(v2_text_pack_rejected nonzero "text_models/node00\\.csm: .*bad magic"
  "${CSMCLI}" pack "${WORK_DIR}/text_models" "${WORK_DIR}/text.pack")

message(STATUS "pack round trip clean (${n_unpacked} models)")
