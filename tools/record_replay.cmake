# ctest helper: the record/replay workflow through csmcli.
#
#   stream --record -> replay --sig-out  (signatures byte-identical to the
#   live run: the recording holds exactly what the engine ingested, and the
#   replay refits the same method on the same bytes)
#
#   replay x2                            (replay is deterministic: two
#   replays of one recording produce byte-identical signature files)
#
#   replay --scenario                    (fault injection perturbs the
#   signatures; the clean recording on disk is untouched)
#
#   multi-node: replays of `stream --record` and of `record` captures
#   (byte-identical signatures, to each other and to the live run, although
#   the two files may order nodes' batches differently)
#
# plus a corrupt-fixture check that a wrong-magic file is rejected with the
# error named. Window/step are passed explicitly everywhere: `stream`
# defaults to the segment's wl/ws while `replay` defaults to 60/10, and
# byte-identity needs both engines configured alike. Run with:
#   cmake -DCSMCLI=... -DWORK_DIR=... -P record_replay.cmake

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

function(require_identical label a b)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${a}" "${b}"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${label}: ${a} and ${b} differ")
  endif()
endfunction()

function(require_different label a b)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${a}" "${b}"
    RESULT_VARIABLE rc)
  if(rc EQUAL 0)
    message(FATAL_ERROR "${label}: ${a} and ${b} are identical")
  endif()
endfunction()

set(flags --scale 0.2 --window 60 --step 10 --history 256)

# Live run, tapped: the capture holds exactly what the engine ingested.
run_step(stream_record zero "recorded [0-9]+ batches"
  "${CSMCLI}" stream fault ${flags}
  --record "${WORK_DIR}/capture.csmr" --sig-out "${WORK_DIR}/live.sigs")

# Replaying the capture with the same engine flags refits the same method
# on the same bytes: the signature stream must match the live run exactly.
run_step(replay_capture zero "recording .*: [0-9]+ nodes, [0-9]+ batches"
  "${CSMCLI}" replay "${WORK_DIR}/capture.csmr" ${flags}
  --sig-out "${WORK_DIR}/replay.sigs")
require_identical(live_vs_replay
  "${WORK_DIR}/live.sigs" "${WORK_DIR}/replay.sigs")

# Replay determinism: a second replay is byte-identical to the first.
run_step(replay_again zero ""
  "${CSMCLI}" replay "${WORK_DIR}/capture.csmr" ${flags}
  --sig-out "${WORK_DIR}/replay2.sigs")
require_identical(replay_determinism
  "${WORK_DIR}/replay.sigs" "${WORK_DIR}/replay2.sigs")

# The standalone recorder writes the same batches `stream` would ingest.
run_step(record_segment zero "recorded [0-9]+ nodes x [0-9]+ samples"
  "${CSMCLI}" record fault "${WORK_DIR}/offline.csmr"
  --scale 0.2 --batch 256)
require_identical(offline_capture_matches_tap
  "${WORK_DIR}/capture.csmr" "${WORK_DIR}/offline.csmr")

# A multi-node segment. `stream --record` files each batch when its node
# finishes, in thread arrival order, so its capture may interleave nodes
# differently from the node-by-node `record` capture; each node's batches
# keep their order. A replay feeds every node its own batches in order, so
# both captures replay to the live run's signatures byte for byte.
set(app_segment --scale 0.1 --batch 64)
set(app_engine --window 60 --step 10 --history 256)
run_step(app_stream_record zero "recorded [0-9]+ batches \\(16 nodes\\)"
  "${CSMCLI}" stream application ${app_segment} ${app_engine}
  --record "${WORK_DIR}/app_capture.csmr" --sig-out "${WORK_DIR}/app_live.sigs")
run_step(app_record zero "recorded 16 nodes x [0-9]+ samples"
  "${CSMCLI}" record application "${WORK_DIR}/app_offline.csmr"
  ${app_segment})
foreach(capture capture offline)
  run_step(app_replay_${capture} zero "recording .*: 16 nodes, [0-9]+ batches"
    "${CSMCLI}" replay "${WORK_DIR}/app_${capture}.csmr" ${app_engine}
    --sig-out "${WORK_DIR}/app_replay_${capture}.sigs")
endforeach()
require_identical(app_live_vs_tap_replay
  "${WORK_DIR}/app_live.sigs" "${WORK_DIR}/app_replay_capture.sigs")
require_identical(app_tap_replay_vs_record_replay
  "${WORK_DIR}/app_replay_capture.sigs" "${WORK_DIR}/app_replay_offline.sigs")

# Scenario replay mutates the stream on the way in (the recording on disk
# is untouched), so the signatures must diverge from the clean replay.
run_step(replay_scenario zero "scenario: drift:at=500"
  "${CSMCLI}" replay "${WORK_DIR}/capture.csmr" ${flags}
  --scenario "drift:at=500,mix=0.6,gain=1.6" --seed 7
  --sig-out "${WORK_DIR}/faulted.sigs")
require_different(scenario_perturbs_signatures
  "${WORK_DIR}/replay.sigs" "${WORK_DIR}/faulted.sigs")
file(SIZE "${WORK_DIR}/capture.csmr" size_after)

# Drift-triggered retrain over the faulted replay still completes and
# reports the detector counters.
run_step(replay_ondrift zero
  "drift detector: [0-9]+ windows scored, [0-9]+ flagged, [0-9]+ drift retrains"
  "${CSMCLI}" replay "${WORK_DIR}/capture.csmr" ${flags}
  --scenario "drift:at=500,mix=0.6,gain=1.6" --seed 7
  --drift-threshold 0.5 --drift-patience 3)

# Corrupt-fixture rejection at the CLI level (bitflip/truncation CRC paths
# are pinned byte-precisely in tests/replay/recording_test.cpp and the
# fuzz/regressions/recording corpus; here the fixture must be writable from
# CMake, so it is a wrong-magic file and the named error is the contract).
file(WRITE "${WORK_DIR}/bad_magic.csmr" "XSMR-not-a-recording")
run_step(corrupt_magic_rejected nonzero "not a CSMR recording"
  "${CSMCLI}" replay "${WORK_DIR}/bad_magic.csmr" ${flags})

message(STATUS "record/replay round trip clean (capture ${size_after} bytes)")
