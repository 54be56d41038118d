# ctest helper: `csmcli extract` over a sensor directory this script writes
# (5 sensors x T samples, 1 s apart). Both forms — a trained model file and
# the self-trained --method form — must write byte-identical feature CSVs
# with a header plus one row per window, N = (T - wl) / ws + 1; a baseline
# spec extracts too; a window longer than the data exits 2. Run with:
#   cmake -DCSMCLI=... -DWORK_DIR=... -P extract_windows.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
set(sensors "${WORK_DIR}/sensors")
set(T 120)
set(WL 20)
set(WS 7)

# Integer-valued, non-degenerate series of different periods and phases, so
# the sensors correlate unevenly and every row has hi > lo.
math(EXPR last "${T} - 1")
foreach(s RANGE 4)
  set(csv "timestamp,value\n")
  foreach(t RANGE ${last})
    math(EXPR ts "${t} * 1000")
    math(EXPR v "(${t} * (${s} + 3) * 37 + ${s} * 11) % (53 + ${s} * 6) + ${t} * ${s} / 9")
    string(APPEND csv "${ts},${v}\n")
  endforeach()
  file(WRITE "${sensors}/s${s}.csv" "${csv}")
endforeach()

# run_step(<label> <expected-exit> <expected-output-regex> <command...>)
function(run_step label expect_rc expect_out)
  execute_process(
    COMMAND ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  string(APPEND out "${err}")
  if(NOT rc STREQUAL "${expect_rc}" OR NOT out MATCHES "${expect_out}")
    message(FATAL_ERROR "${label}: expected exit ${expect_rc} and "
      "\"${expect_out}\", got ${rc}:\n${out}")
  endif()
endfunction()

math(EXPR n_windows "(${T} - ${WL}) / ${WS} + 1")
run_step(train 0 "CS-2 model written"
  "${CSMCLI}" train "${sensors}" "${WORK_DIR}/model.csmb"
  --method cs:blocks=2)
run_step(extract_model 0 "wrote ${n_windows} CS-2 signatures of length 4"
  "${CSMCLI}" extract "${sensors}" "${WORK_DIR}/model.csmb" "${WORK_DIR}/a.csv"
  --window ${WL} --step ${WS})
run_step(extract_method 0 "wrote ${n_windows} CS-2 signatures of length 4"
  "${CSMCLI}" extract "${sensors}" "${WORK_DIR}/b.csv" --method cs:blocks=2
  --window ${WL} --step ${WS})

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${WORK_DIR}/a.csv"
          "${WORK_DIR}/b.csv"
  RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "extract: the model-file and --method CSVs differ")
endif()
file(STRINGS "${WORK_DIR}/a.csv" lines)
list(LENGTH lines n_lines)
math(EXPR expect_lines "${n_windows} + 1")
if(NOT n_lines EQUAL expect_lines)
  message(FATAL_ERROR
    "extract: a.csv has ${n_lines} lines, expected ${expect_lines}")
endif()

run_step(extract_tuncer 0 "wrote ${n_windows} Tuncer signatures"
  "${CSMCLI}" extract "${sensors}" "${WORK_DIR}/c.csv" --method tuncer
  --window ${WL} --step ${WS})
run_step(extract_too_long 2 "no complete windows"
  "${CSMCLI}" extract "${sensors}" "${WORK_DIR}/model.csmb" "${WORK_DIR}/d.csv"
  --window 500)
