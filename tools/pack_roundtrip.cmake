# ctest helper: the full model-format workflow through csmcli.
#
#   stream --dump-models -> pack -> info -> stream --pack -> unpack --format
#   binary -> convert back to text
#
# plus wrong-version fixture checks: the pack and binary-record readers
# name the version byte they reject, and "csmethod v1" text (a format of
# earlier releases) is refused as a bad header. Run with:
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
run_step(unpack_binary zero "unpacked [0-9]+ models"
  "${CSMCLI}" unpack "${WORK_DIR}/fleet.pack" "${WORK_DIR}/unpacked"
  --format binary)

file(GLOB unpacked_models "${WORK_DIR}/unpacked/*.csmb")
list(LENGTH unpacked_models n_unpacked)
if(n_unpacked EQUAL 0)
  message(FATAL_ERROR "unpack produced no .csmb files in ${WORK_DIR}/unpacked")
endif()
list(GET unpacked_models 0 first_model)
run_step(convert_to_text zero "re-encoded as text"
  "${CSMCLI}" convert "${first_model}" "${WORK_DIR}/roundtrip.csm"
  --format text)
run_step(info_roundtrip zero "CS-"
  "${CSMCLI}" info "${WORK_DIR}/roundtrip.csm")

# Wrong-version fixtures built from printable bytes: the version slots hold
# the character '9' (byte 57), so both readers must name version 57.
string(REPEAT "x" 40 filler)
file(WRITE "${WORK_DIR}/bad_version.pack" "CSMPACK9${filler}")
run_step(wrong_pack_version nonzero "unsupported model pack version 57"
  "${CSMCLI}" info "${WORK_DIR}/bad_version.pack")
file(WRITE "${WORK_DIR}/bad_version.csmb" "CSMB9${filler}")
run_step(wrong_record_version nonzero "unsupported binary model version 57"
  "${CSMCLI}" info "${WORK_DIR}/bad_version.csmb")
file(WRITE "${WORK_DIR}/v1_text.csm"
  "csmethod v1 cs\nblocks 2\nreal-only 0\ncsmodel v1\n1\n0 0 1\n")
run_step(v1_text_rejected nonzero "bad header"
  "${CSMCLI}" info "${WORK_DIR}/v1_text.csm")

message(STATUS "pack round trip clean (${n_unpacked} models)")
