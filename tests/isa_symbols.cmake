# The ISA boundary check: every object compiled with vector flags must
# define exactly one external symbol, its `*_avx2()` / `*_avx512()` kernel
# getter, and no other global, weak or unique symbol.  A weak or vague-linkage
# definition in a vector object (an inline function, a vtable, a static local
# of an inline function) could be the copy the linker keeps for the whole
# binary, and would then run vector instructions on the scalar path.
#
#   cmake -DNM=<nm> -DOBJECTS=<object;...> -P isa_symbols.cmake
if(NOT NM OR NOT OBJECTS)
  message(FATAL_ERROR "usage: cmake -DNM=<nm> -DOBJECTS=<object;...> -P isa_symbols.cmake")
endif()

set(stray)
set(miscounted)
foreach(object IN LISTS OBJECTS)
  execute_process(COMMAND "${NM}" --defined-only -C "${object}"
                  OUTPUT_VARIABLE symbols RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${NM} failed on ${object}")
  endif()
  get_filename_component(unit "${object}" NAME)
  set(getters 0)
  string(REPLACE "\n" ";" lines "${symbols}")
  foreach(line IN LISTS lines)
    # "<address> <type> <name>": upper-case types are global, u is unique
    # global, v and w are weak, i is an indirect function.
    if(NOT line MATCHES "^[0-9a-fA-F]+ ([A-Zuvwi]) (.*)$")
      continue()
    endif()
    set(type "${CMAKE_MATCH_1}")
    set(name "${CMAKE_MATCH_2}")
    if(type STREQUAL "T" AND name MATCHES "_avx(2|512)\\(\\)$")
      math(EXPR getters "${getters} + 1")
    else()
      list(APPEND stray "${unit}: ${type} ${name}")
    endif()
  endforeach()
  if(NOT getters EQUAL 1)
    list(APPEND miscounted "${unit}: ${getters} getters")
  endif()
endforeach()

set(report)
if(stray)
  list(LENGTH stray count)
  list(JOIN stray "\n  " lines)
  string(APPEND report "${count} stray symbols in the vector objects:\n  ${lines}\n")
endif()
if(miscounted)
  list(JOIN miscounted "\n  " lines)
  string(APPEND report "vector objects without exactly one getter:\n  ${lines}\n")
endif()
if(report)
  message(FATAL_ERROR "${report}")
endif()
list(LENGTH OBJECTS objects)
message(STATUS "${objects} vector objects, one getter each and no other external symbol")
