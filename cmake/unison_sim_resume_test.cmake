# ctest helper: the crash-safety contract of --store, driven
# end-to-end through the unison_sim binary.
#
#  1. a run killed (deterministically, via the UNISON_FAULT write-kill
#     injection: _exit(137) at an exact byte of an object publish) and
#     then rerun with the same --store produces byte-identical JSON to
#     an uninterrupted run, replaying what reached the store -- here a
#     shard that shares the store directory;
#  2. a rerun after a complete run is all hits, byte-identically, and
#     `store gc` reclaims the killed publisher's temp file;
#  3. a warm snapshot in the store lets a rerun skip its warm-up (a
#     warm hit, no leader run, no new snapshot), and a corrupt warm
#     object (read-corrupt injection) is rejected with a structured
#     warning and falls back to a cold warm-up, byte-identically;
#  4. the classified exit codes hold: 2 for usage errors (including a
#     spec the design's validation refuses, and an unknown --format or
#     --memory-backend, both refused before any point runs), 3 for I/O, 4 for corrupt
#     input (including a spec in a retired schema version and a knob
#     outside its range), 1 for an option the build no longer has.
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

# Run unison_sim with the given arguments; fail unless it exits 0.
# Leaves its stderr in `err`.
macro(run_ok what)
  execute_process(
    COMMAND ${UNISON_SIM_BIN} ${ARGN}
    RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${what} failed (${rc}):\n${err}")
  endif()
endmacro()

# Fail unless files `a` and `b` hold the same bytes.
function(expect_same a b what)
  file(READ ${a} left)
  file(READ ${b} right)
  if(NOT left STREQUAL right)
    message(FATAL_ERROR
      "${what}: output differs\n--- ${a} ---\n${left}\n--- ${b} ---\n"
      "${right}")
  endif()
endfunction()

# Fail unless `text` contains `needle`.
function(expect_in text needle what)
  string(FIND "${text}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "${what}: expected '${needle}' in:\n${text}")
  endif()
endfunction()

set(store ${WORK_DIR}/store)

# ----------------------------------------------------------- golden
run_ok("uninterrupted run" --spec ${SMOKE_SPEC} --format json
       --out ${WORK_DIR}/golden.json)

# One shard of the grid runs to completion into the store: shards
# share one store directory, and its points are what the killed run
# below can replay.
run_ok("shard 0/2 into the store" --spec ${SMOKE_SPEC} --format json
       --shard 0/2 --store ${store} --out ${WORK_DIR}/shard0.json)
file(GLOB objects ${store}/objects/*.res)
list(LENGTH objects n_objects)
if(NOT n_objects EQUAL 2)
  message(FATAL_ERROR "shard 0/2 published ${n_objects} objects, not 2")
endif()
list(GET objects 0 object)
file(SIZE ${object} object_size)
if(object_size LESS 100)
  message(FATAL_ERROR "store object implausibly small (${object_size}B)")
endif()

# ------------------------------------------- kill mid-publish, rerun
# The full grid replays shard 0's two points and simulates the third;
# its publish dies halfway into the temp file (record boundaries
# depend on JSON payload sizes, so the offset is computed, not
# hard-coded).
math(EXPR kill_at "${object_size} / 2")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env
          "UNISON_FAULT=write-kill@/objects/.tmp.:${kill_at}"
          ${UNISON_SIM_BIN} --spec ${SMOKE_SPEC} --format json
          --store ${store} --out ${WORK_DIR}/crashed.json
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 137)
  message(FATAL_ERROR
    "expected the injected kill (exit 137) at publish byte "
    "${kill_at}, got exit ${rc}:\n${err}")
endif()
if(EXISTS ${WORK_DIR}/crashed.json)
  message(FATAL_ERROR "killed run must not have written its output")
endif()
file(GLOB temps ${store}/objects/.tmp.*)
list(LENGTH temps n_temps)
if(NOT n_temps EQUAL 1)
  message(FATAL_ERROR "expected one torn temp file, found ${n_temps}")
endif()
file(SIZE ${temps} temp_size)
if(NOT temp_size EQUAL ${kill_at})
  message(FATAL_ERROR
    "kill injection persisted ${temp_size}B, expected ${kill_at}B")
endif()
file(GLOB objects ${store}/objects/*.res)
list(LENGTH objects n_objects)
if(NOT n_objects EQUAL 2)
  message(FATAL_ERROR "the torn publish must not be visible as an "
                      "object (${n_objects} objects)")
endif()

run_ok("rerun after kill" --spec ${SMOKE_SPEC} --format json
       --store ${store} --out ${WORK_DIR}/resumed.json)
expect_in("${err}" "2 hit(s), 1 insert(s)" "rerun after kill")
expect_same(${WORK_DIR}/golden.json ${WORK_DIR}/resumed.json
            "kill + rerun")

# ----------------------------------------- rerun of a complete run
run_ok("rerun of a complete run" --spec ${SMOKE_SPEC} --format json
       --store ${store} --out ${WORK_DIR}/replayed.json)
expect_in("${err}" "3 hit(s), 0 insert(s)" "rerun of a complete run")
expect_same(${WORK_DIR}/golden.json ${WORK_DIR}/replayed.json
            "complete rerun")

# The killed publisher is gone, so gc reclaims its temp file.
execute_process(
  COMMAND ${UNISON_SIM_BIN} store gc --store ${store} --max-bytes 1G
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "store gc failed (${rc}):\n${err}")
endif()
expect_in("${out}" "reclaimed 1 orphaned temp(s), evicted 0" "store gc")

# ------------------------------------------------- warm snapshots
# A two-point grid sharing one warm prefix (explicit warmupAccesses),
# so the store has a warm snapshot to publish.
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
set(warm_store ${WORK_DIR}/warm_store)

run_ok("warm golden run" --spec ${WORK_DIR}/warm.json --format json
       --out ${WORK_DIR}/warm_golden.json)

# Populate the store: one leader warms up and publishes its snapshot.
run_ok("store-populating run" --spec ${WORK_DIR}/warm.json
       --format json --store ${warm_store}
       --out ${WORK_DIR}/warm_first.json)
expect_in("${err}" "0 warm hit(s), 1 warm save(s)" "first warm run")
file(GLOB ckpts ${warm_store}/objects/*.ckpt)
list(LENGTH ckpts n_ckpts)
if(NOT n_ckpts EQUAL 1)
  message(FATAL_ERROR "expected one warm object, found ${n_ckpts}")
endif()
expect_same(${WORK_DIR}/warm_golden.json ${WORK_DIR}/warm_first.json
            "warm snapshot publish")

# Drop the results (as a gc might) so the rerun must simulate: the
# warm-up comes from the store, so no leader runs and nothing new is
# saved.
file(GLOB results ${warm_store}/objects/*.res)
file(REMOVE ${results})
run_ok("warm rerun" --spec ${WORK_DIR}/warm.json --format json
       --store ${warm_store} --out ${WORK_DIR}/warm_rerun.json)
expect_in("${err}" "0 hit(s), 2 insert(s), 1 warm hit(s), 0 warm save(s)"
          "warm rerun")
expect_same(${WORK_DIR}/warm_golden.json ${WORK_DIR}/warm_rerun.json
            "warm-up served from the store")

# ...then again with every warm-object read corrupted in flight: the
# run must warn, fall back to a cold warm-up, and still match.
file(GLOB results ${warm_store}/objects/*.res)
file(REMOVE ${results})
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env "UNISON_FAULT=read-corrupt@.ckpt:40"
          ${UNISON_SIM_BIN} --spec ${WORK_DIR}/warm.json
          --format json --store ${warm_store}
          --out ${WORK_DIR}/warm_corrupt.json
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "corrupt-snapshot run must degrade, not fail (${rc}):\n${err}")
endif()
expect_in("${err}" "[store-rejected]" "corrupt warm object")
expect_in("${err}" "fallback=cold-warmup" "corrupt warm object")
expect_same(${WORK_DIR}/warm_golden.json ${WORK_DIR}/warm_corrupt.json
            "corrupt-snapshot fallback")

# --------------------------------------------- classified exit codes
execute_process(
  COMMAND ${UNISON_SIM_BIN} --spec ${SMOKE_SPEC} --shard 3/2
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "--shard 3/2 must exit 2 (usage), got ${rc}")
endif()

execute_process(
  COMMAND ${UNISON_SIM_BIN} --list --store ${store}
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR
    "--store without --figure/--spec must exit 2 (usage), got ${rc}")
endif()

# An unknown output format or memory backend is usage, refused before
# any point is simulated (no "done" progress line).
foreach(bad "--format;xml" "--memory-backend;cycleexact")
  execute_process(
    COMMAND ${UNISON_SIM_BIN} --spec ${SMOKE_SPEC} ${bad}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  string(FIND "${err}" " done" ran)
  if(NOT rc EQUAL 2 OR NOT ran EQUAL -1)
    message(FATAL_ERROR
      "'${bad}' must exit 2 (usage) before simulating, got ${rc}:\n"
      "${err}")
  endif()
endforeach()

# An unknown --knobs design is usage too, and the message names the
# registered designs (the retired `unisonwp` folded into `unison`).
execute_process(
  COMMAND ${UNISON_SIM_BIN} --knobs unisonwp
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
string(FIND "${err}" "unison," named)
if(NOT rc EQUAL 2 OR named EQUAL -1)
  message(FATAL_ERROR
    "--knobs unisonwp must exit 2 (usage) naming unison, got ${rc}:\n"
    "${err}")
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

# Retired options are gone: argparse rejects each as an unknown option
# (exit 1, unclassified) -- the intra-experiment thread count, the
# result journal and its resume flag, and the warm-checkpoint
# directory. Spelled in parts so the retired names appear only in
# docs.
set(retired "")
foreach(parts "engine;-threads" "jour;nal" "res;ume" "warm-ckpt;-dir")
  string(REPLACE ";" "" flag "${parts}")
  list(APPEND retired ${flag})
endforeach()
foreach(flag ${retired})
  execute_process(
    COMMAND ${UNISON_SIM_BIN} --spec ${SMOKE_SPEC} --${flag} 2
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  string(FIND "${err}" "unknown option --${flag}" found)
  if(NOT rc EQUAL 1 OR found EQUAL -1)
    message(FATAL_ERROR
      "--${flag} must fail as an unknown option (exit 1), "
      "got ${rc}:\n${err}")
  endif()
endforeach()

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

# A knob outside its range is corrupt input (exit 4) whose message
# names the range -- refused at parse time, before any cache is built.
file(WRITE ${WORK_DIR}/bad_knob.json "{
  \"schema\": \"unison-spec/5\",
  \"workload\": \"webserving\",
  \"design\": {\"name\": \"unison\", \"pageBlocks\": 40},
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
  COMMAND ${UNISON_SIM_BIN} --spec ${WORK_DIR}/bad_knob.json
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
string(FIND "${err}" "[1, 32]" found)
if(NOT rc EQUAL 4 OR found EQUAL -1)
  message(FATAL_ERROR
    "unison pageBlocks 40 must exit 4 naming the range [1, 32], "
    "got ${rc}:\n${err}")
endif()

# A spec every knob range accepts but the design's own validation
# refuses (an FHT shape with a fractional set count) is a usage error
# (exit 2) naming the knob -- the class `submit` reports for it too.
file(WRITE ${WORK_DIR}/bad_fht.json "{
  \"schema\": \"unison-spec/5\",
  \"workload\": \"webserving\",
  \"design\": {\"name\": \"alloyfp\", \"fhtEntries\": 3},
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
  COMMAND ${UNISON_SIM_BIN} --spec ${WORK_DIR}/bad_fht.json
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
string(FIND "${err}" "fhtEntries" found)
if(NOT rc EQUAL 2 OR found EQUAL -1)
  message(FATAL_ERROR
    "alloyfp fhtEntries 3 must exit 2 (usage) naming fhtEntries, "
    "got ${rc}:\n${err}")
endif()
