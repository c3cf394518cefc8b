# CTest driver for the mtp-report regression gate. Invoked as
#
#   cmake -DMTP_SIM=<path> -DMTP_REPORT=<path> -DBENCH_OBS_OVERHEAD=<path>
#         -DDATA_DIR=<path> -DWORK_DIR=<path> -P run_report_gate.cmake
#
# Exercises the full artifact pipeline end to end: re-simulates the
# golden workload, checks the report modes run clean on real inputs,
# gates the fresh run against the checked-in golden snapshot, and
# verifies a known-regressed snapshot actually trips the gate (exit 3,
# distinct from an input error's 1). Malformed numeric flags must exit
# 1 with a message naming the flag. A passing run then deletes the
# fresh artifacts.

foreach(var MTP_SIM MTP_REPORT BENCH_OBS_OVERHEAD DATA_DIR WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "${var} must be defined")
    endif()
endforeach()

set(GOLDEN "${DATA_DIR}/golden_stream_base.json")
set(MTHWP "${DATA_DIR}/golden_stream_mthwp.json")
set(REGRESSED "${DATA_DIR}/golden_stream_regressed.json")

# run_step(<status> [MATCH <regex>] <command...>): the command must
# exit with <status> and, given MATCH, print output matching <regex>.
function(run_step expect_status)
    cmake_parse_arguments(PARSE_ARGV 1 STEP "" "MATCH" "")
    execute_process(COMMAND ${STEP_UNPARSED_ARGUMENTS}
        RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE out)
    string(JOIN " " cmd ${STEP_UNPARSED_ARGUMENTS})
    if(NOT status EQUAL ${expect_status})
        message(FATAL_ERROR
            "'${cmd}' exited ${status}, expected ${expect_status}\n${out}")
    endif()
    if(DEFINED STEP_MATCH AND NOT out MATCHES "${STEP_MATCH}")
        message(FATAL_ERROR
            "'${cmd}' output does not match '${STEP_MATCH}':\n${out}")
    endif()
endfunction()

# 1. Regenerate the golden workload with the current simulator. The
#    simulator is deterministic, so any drift shows up in the gate.
#    All three sink formats are written, so every build type runs
#    the shared number writer end to end.
run_step(0 ${MTP_SIM} --bench stream --scale 64 --quiet
    --stats ${WORK_DIR}/report_gate_fresh.json --json
    --sample-period 4096 --events ${WORK_DIR}/report_gate_fresh.jsonl
    --timeseries ${WORK_DIR}/report_gate_fresh.csv
    --trace-out ${WORK_DIR}/report_gate_fresh.trace.json
    numCores=2 dramChannels=2)

# 2. Report modes must run clean on real artifacts.
run_step(0 ${MTP_REPORT} show ${GOLDEN} ${MTHWP}
    --jsonl ${WORK_DIR}/report_gate_fresh.jsonl)
run_step(0 ${MTP_REPORT} compare ${GOLDEN} ${MTHWP})

# 3. The fresh run must match the checked-in snapshot within the gate.
run_step(0 ${MTP_REPORT} diff ${GOLDEN}
    ${WORK_DIR}/report_gate_fresh.json --gate 5)

# 4. A known regression (3x memory latency) must trip the gate ...
run_step(3 ${MTP_REPORT} diff ${GOLDEN} ${REGRESSED} --gate 5)

# 5. ... and pass when the gate is wide enough to absorb it.
run_step(0 ${MTP_REPORT} diff ${GOLDEN} ${REGRESSED} --gate 50)

# 6. Malformed numbers are located input errors (exit 1 naming the
#    flag), never an abort, a signal or a NaN gate that passes.
run_step(1 MATCH "--scale expects" ${MTP_SIM} --scale abc --bench stream)
run_step(1 MATCH "--jobs expects" ${MTP_SIM} --jobs abc --bench stream)
run_step(1 MATCH "--gate expects"
    ${MTP_REPORT} diff ${GOLDEN} ${MTHWP} --gate nan)
run_step(1 MATCH "--tol-rel expects"
    ${MTP_REPORT} campaign diff a b --tol-rel x)
run_step(1 MATCH "--scale expects" ${BENCH_OBS_OVERHEAD} --scale abc)

# 7. A passing run leaves none of step 1's artifacts in the build tree
#    (the JSONL and Chrome files are ~90 MB each). A failing step
#    stops above this line, so its files stay for diagnosis.
file(REMOVE
    ${WORK_DIR}/report_gate_fresh.json
    ${WORK_DIR}/report_gate_fresh.jsonl
    ${WORK_DIR}/report_gate_fresh.csv
    ${WORK_DIR}/report_gate_fresh.trace.json)
