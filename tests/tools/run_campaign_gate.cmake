# CTest driver for the campaign figure-drift gate. Invoked as
#
#   cmake -DMTP_CAMPAIGN=<path> -DMTP_REPORT=<path> -DDATA_DIR=<path>
#         -DWORK_DIR=<path> -P run_campaign_gate.cmake
#
# Exercises the one-command reproduction pipeline end to end: runs the
# reduced (--smoke) campaign, checks the manifest summary renders, and
# gates the fresh manifest against the checked-in golden snapshot in
# tests/data/. A deliberately incomplete campaign must trip the gate.

foreach(var MTP_CAMPAIGN MTP_REPORT DATA_DIR WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "${var} must be defined")
    endif()
endforeach()

set(GOLDEN "${DATA_DIR}/golden_campaign_smoke.json")
set(FRESH "${WORK_DIR}/campaign_gate_fresh.json")
set(PARTIAL "${WORK_DIR}/campaign_gate_partial.json")

function(run_step expect_status)
    execute_process(COMMAND ${ARGN} RESULT_VARIABLE status)
    if(NOT status EQUAL ${expect_status})
        string(JOIN " " cmd ${ARGN})
        message(FATAL_ERROR
            "'${cmd}' exited ${status}, expected ${expect_status}")
    endif()
endfunction()

# 1. The reduced campaign: every deterministic figure at 1/64 scale on
#    a class-covering benchmark subset. --skip-volatile keeps the
#    wall-clock harnesses out of a shared CI machine's test run.
run_step(0 ${MTP_CAMPAIGN} --smoke --quiet --skip-volatile
    --out ${FRESH})

# 2. The manifest summary must render from real output.
run_step(0 ${MTP_REPORT} campaign show ${FRESH})

# 3. The fresh manifest must match the checked-in golden snapshot.
#    Simulated cycle counts are bit-identical everywhere, so the 5%
#    relative tolerance only absorbs floating-point ratio noise across
#    compilers; real figure drift is far larger (see the unit tests).
run_step(0 ${MTP_REPORT} campaign diff ${GOLDEN} ${FRESH}
    --gate --tol-rel 5)

# 4. Without --gate, drift reports but does not fail ...
run_step(0 ${MTP_CAMPAIGN} --smoke --quiet --skip-volatile
    --only tab03_characteristics --out ${PARTIAL})
run_step(0 ${MTP_REPORT} campaign diff ${GOLDEN} ${PARTIAL})

# 5. ... and with --gate an incomplete campaign must trip it (exit 3,
#    distinct from an input error's 1).
run_step(3 ${MTP_REPORT} campaign diff ${GOLDEN} ${PARTIAL} --gate)
