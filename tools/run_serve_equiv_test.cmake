# ctest driver for the serve/CLI equivalence contract (docs/SERVE.md):
# the payload of every serve `result` must be byte-identical to the
# stdout of the equivalent one-shot CLI invocation, and its `exit` equal
# to the CLI's exit code.  Serve's pipe mode mirrors each payload
# verbatim to <payload-dir>/<id>.out, so the payload check is a plain
# file diff — no JSON parsing in the test driver.
#
# Expects: -DPMBIST_CLI=<path> -DCHIP=<chip file> -DPROFILE=<profile file>
#          -DWORK=<scratch directory>

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK}/payloads)

# Inline the chip and profile files into JSON string literals (escape
# order matters: backslashes first).
file(READ ${CHIP} chip_text)
file(READ ${PROFILE} profile_text)
foreach(var chip_text profile_text)
  string(REPLACE "\\" "\\\\" ${var} "${${var}}")
  string(REPLACE "\"" "\\\"" ${var} "${${var}}")
  string(REPLACE "\t" "\\t" ${var} "${${var}}")
  string(REPLACE "\n" "\\n" ${var} "${${var}}")
endforeach()

file(WRITE ${WORK}/requests.ndjson
  "{\"id\":\"cov\",\"kind\":\"campaign\",\"algorithm\":\"MATS\",\"addr_bits\":4,\"samples\":4,\"jobs\":1}\n"
  "{\"id\":\"lint\",\"kind\":\"lint\",\"input\":\"March C\"}\n"
  "{\"id\":\"soc\",\"kind\":\"soc\",\"chip\":\"${chip_text}\",\"jobs\":1}\n"
  "{\"id\":\"field\",\"kind\":\"field\",\"chip\":\"${chip_text}\",\"profile\":\"${profile_text}\",\"jobs\":1}\n"
  "{\"id\":\"cov_saf\",\"kind\":\"campaign\",\"algorithm\":\"MATS\",\"addr_bits\":4,\"samples\":4,\"jobs\":1,\"classes\":[\"SAF\"]}\n"
  "{\"id\":\"mem\",\"kind\":\"memtest\",\"size_mb\":1,\"backend\":\"sim\"}\n"
  "{\"id\":\"lint_bad\",\"kind\":\"lint\",\"input\":\"any(w0); up(r1)\"}\n")

execute_process(
  COMMAND ${PMBIST_CLI} serve --payload-dir ${WORK}/payloads
  INPUT_FILE ${WORK}/requests.ndjson
  OUTPUT_FILE ${WORK}/events.ndjson
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "pmbist serve exited ${rc}")
endif()

# The equivalent one-shot invocations (same jobs, default everything
# else).  Reports go to stdout; wall-clock chatter goes to stderr and is
# deliberately dropped — it is not part of the contract.
set(cli_cov coverage MATS --addr-bits 4 --samples 4 --jobs 1)
set(cli_lint lint "March C")
set(cli_soc soc --chip ${CHIP} --jobs 1)
set(cli_field field --chip ${CHIP} --profile ${PROFILE} --jobs 1)
set(cli_cov_saf ${cli_cov} --fault SAF)
set(cli_mem memtest --size 1M --backend sim)
set(cli_lint_bad lint "any(w0)\; up(r1)")  # MA03: exits 1

file(READ ${WORK}/events.ndjson events)
foreach(pair "cov" "lint" "soc" "field" "cov_saf" "mem" "lint_bad")
  execute_process(
    COMMAND ${PMBIST_CLI} ${cli_${pair}}
    OUTPUT_FILE ${WORK}/${pair}.cli ERROR_VARIABLE ignored RESULT_VARIABLE rc)
  # A result event opens with its event, id and exit members, in order.
  if(NOT events MATCHES "\"event\":\"result\",\"id\":\"${pair}\",\"exit\":([0-9]+)")
    message(FATAL_ERROR "serve sent no result for '${pair}'")
  endif()
  if(NOT rc EQUAL CMAKE_MATCH_1)
    message(FATAL_ERROR "pmbist ${cli_${pair}} exited ${rc}, but serve "
                        "'${pair}' has exit ${CMAKE_MATCH_1}")
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK}/payloads/${pair}.out ${WORK}/${pair}.cli
    RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR
            "serve '${pair}' payload differs from the one-shot CLI stdout "
            "(${WORK}/payloads/${pair}.out vs ${WORK}/${pair}.cli)")
  endif()
endforeach()
