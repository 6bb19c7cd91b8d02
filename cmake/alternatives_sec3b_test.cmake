# ctest helper: the Sec. III-B.1 mechanism on the quick alternatives
# grid. The block-based cache with footprint prediction must read and
# write more stacked-DRAM bytes per reference than both Alloy Cache and
# Unison Cache on every workload: its row scans to classify misses and
# reconstruct footprints are the bandwidth cost the paper rejects it
# for. (The speedup ordering is not checked: at quick length the
# caches are still filling, see README "Sec. III-B alternatives".)
# Invoked as:
#   cmake -DALTERNATIVES_BIN=<path> -P alternatives_sec3b_test.cmake
if(NOT ALTERNATIVES_BIN)
  message(FATAL_ERROR "ALTERNATIVES_BIN not set")
endif()

execute_process(
  COMMAND ${ALTERNATIVES_BIN} --quick --csv --threads=2
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "alternatives_sec3b failed (${rc}):\n${err}")
endif()

# Rows: workload,design,miss%,dc_lat,offchip blk/1K refs,stacked B/ref,speedup
string(REPLACE "\n" ";" lines "${out}")
set(workloads "")
foreach(line IN LISTS lines)
  string(REPLACE "," ";" fields "${line}")
  list(LENGTH fields n)
  if(NOT n EQUAL 7)
    continue()
  endif()
  list(GET fields 0 workload)
  list(GET fields 1 design)
  list(GET fields 5 bytes)
  if(NOT bytes MATCHES "^[0-9]+(\\.[0-9]+)?$")
    continue() # the header row
  endif()
  string(MAKE_C_IDENTIFIER "${workload}" w)
  string(MAKE_C_IDENTIFIER "${design}" d)
  set(bytes_${w}_${d} ${bytes})
  list(FIND workloads ${w} seen)
  if(seen EQUAL -1)
    list(APPEND workloads ${w})
  endif()
endforeach()

list(LENGTH workloads n_workloads)
if(NOT n_workloads EQUAL 3)
  message(FATAL_ERROR
    "expected 3 workloads, parsed ${n_workloads} from:\n${out}")
endif()

foreach(w IN LISTS workloads)
  set(naive ${bytes_${w}_Naive_block_FP})
  foreach(other Alloy_Cache Unison_Cache)
    set(ref ${bytes_${w}_${other}})
    if(NOT naive OR NOT ref)
      message(FATAL_ERROR "${w}: missing Naive block+FP or ${other} row")
    endif()
    if(NOT naive GREATER ref)
      message(FATAL_ERROR
        "${w}: Naive block+FP moves ${naive} stacked B/ref, not more "
        "than ${other}'s ${ref}")
    endif()
  endforeach()
  message(STATUS "${w}: Naive block+FP ${naive} B/ref > Alloy "
                 "${bytes_${w}_Alloy_Cache}, Unison "
                 "${bytes_${w}_Unison_Cache}")
endforeach()
