# ctest helper: `csmcli train` over two sensors whose timestamps reach the
# ends of the int64 range. CASE=grid asks for a 2 x 2^63 grid (--interval 1
# over [0, INT64_MAX]): exit 2 with the overflow named, not a crash.
# CASE=auto has a median gap beyond INT64_MAX (samples at -9e18 and +9e18):
# the interval clamps to INT64_MAX and the grid holds 2 columns. Run with:
#   cmake -DCSMCLI=... -DWORK_DIR=... -DCASE=grid|auto -P align_extremes.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
if(CASE STREQUAL "grid")
  set(times 0 9223372036854775807)
  set(args --interval 1)
  set(expect_rc 2)
  set(expect_out "Matrix: 2 x 9223372036854775808 elements overflow std::size_t")
else()
  set(times -9000000000000000000 9000000000000000000)
  set(args)
  set(expect_rc 0)
  set(expect_out "aligned 2 sensors x 2 samples \\(interval 9223372036854775807 ms\\)")
endif()
list(GET times 0 first)
list(GET times 1 last)
foreach(sensor a b)
  file(WRITE "${WORK_DIR}/sensors/${sensor}.csv" "${first},1\n${last},2\n")
endforeach()
execute_process(
  COMMAND "${CSMCLI}" train "${WORK_DIR}/sensors" "${WORK_DIR}/model.csm"
          ${args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc STREQUAL "${expect_rc}" OR NOT out MATCHES "${expect_out}")
  message(FATAL_ERROR
    "train: expected exit ${expect_rc} and \"${expect_out}\", got ${rc}:\n${out}")
endif()
