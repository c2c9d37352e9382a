# Test script: README's driver-flag table and `ccsvm --help` must
# agree. The table lives between the markers
#
#   <!-- driver-flags:begin --> ... <!-- driver-flags:end -->
#
# Every flag --help prints must appear (backticked) inside the marked
# section, and every backticked --flag in the section must exist in
# --help — so neither side can drift without failing CI.
#
# Usage: cmake -DCCSVM_DRIVER=<path> -DCCSVM_README=<path>
#              -P CheckReadmeFlags.cmake

include(${CMAKE_CURRENT_LIST_DIR}/CcsvmCheck.cmake)
ccsvm_require(CCSVM_DRIVER CCSVM_README)

ccsvm_run(--help STDOUT help)
string(REGEX MATCHALL "--[a-z][a-z0-9-]*" help_flags "${help}")
list(REMOVE_DUPLICATES help_flags)
list(LENGTH help_flags n_help)
if(n_help LESS 20)
  message(FATAL_ERROR "only ${n_help} flags in --help; parse broke?")
endif()

file(READ ${CCSVM_README} readme)
string(FIND "${readme}" "<!-- driver-flags:begin -->" begin)
string(FIND "${readme}" "<!-- driver-flags:end -->" end)
if(begin EQUAL -1 OR end EQUAL -1 OR NOT begin LESS end)
  message(FATAL_ERROR
          "README has no <!-- driver-flags:begin/end --> section")
endif()
string(SUBSTRING "${readme}" ${begin} ${end} section)

string(REGEX MATCHALL "`--[a-z][a-z0-9-]*" readme_flags "${section}")
list(TRANSFORM readme_flags REPLACE "^`" "")
list(REMOVE_DUPLICATES readme_flags)

foreach(flag IN LISTS help_flags)
  list(FIND readme_flags ${flag} at)
  if(at EQUAL -1)
    message(FATAL_ERROR "--help flag ${flag} is missing from the "
            "README driver-flags section; update the table between "
            "the driver-flags markers")
  endif()
endforeach()

foreach(flag IN LISTS readme_flags)
  list(FIND help_flags ${flag} at)
  if(at EQUAL -1)
    message(FATAL_ERROR "README documents ${flag} but ccsvm --help "
            "does not know it; fix the table or the driver")
  endif()
endforeach()

list(LENGTH readme_flags n_readme)
message(STATUS "README flag table in sync with --help "
               "(${n_help} flags in help, ${n_readme} documented)")
