# ctest driver for fleet_digest_golden: runs fleet_digest and compares its
# ten lines with the committed tools/fleet_digest.expected.
#
#   cmake -DDIGEST=<fleet_digest binary> -DEXPECTED=<expected file>
#         -DACTUAL=<output file> -P tools/fleet_digest_golden.cmake
execute_process(COMMAND "${DIGEST}" OUTPUT_FILE "${ACTUAL}"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "fleet_digest failed: ${status}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${EXPECTED}"
                        "${ACTUAL}"
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  file(READ "${EXPECTED}" expected)
  file(READ "${ACTUAL}" actual)
  message("expected:\n${expected}actual:\n${actual}")
  message(FATAL_ERROR "fleet digests differ from ${EXPECTED}")
endif()
