#!/bin/sh
# Fails when a native object of the simulation libraries links the
# polymorphic comparison primitives.  An unannotated [<] or [=] on ints
# compiles to a call into caml_compare & co. instead of one machine
# instruction, and on an int array every store then also goes through
# caml_modify; in a hot loop that costs a multiple of the loop's work.
#
#   sh test/check_no_polycompare.sh [BUILD_DIR]     (default _build/default)
#
# Run after `dune build @all`.  Exit 0 when clean, 1 on any reference, 2
# when no object was found (nothing built yet).
build=${1:-_build/default}
prims='caml_(compare|equal|notequal|lessthan|lessequal|greaterthan|greaterequal)'
status=0
checked=0
for lib in util graph churn core p2p expansion; do
  for o in "$build"/lib/$lib/.churnet_$lib.objs/native/*.o; do
    [ -e "$o" ] || continue
    checked=$((checked + 1))
    case "$o" in
      # Json: the parser compares char options while reading a document; cold, once per report.
      */churnet_util__Json.o) continue ;;
      # Event_log: the text replay parser compares int options per line; cold, off the churn loop.
      */churnet_graph__Event_log.o) continue ;;
    esac
    refs=$(nm -u "$o" | awk '{print $NF}' | grep -xE "$prims" | tr '\n' ' ')
    if [ -n "$refs" ]; then
      echo "$o: $refs"
      status=1
    fi
  done
done
if [ "$checked" -eq 0 ]; then
  echo "no native objects under $build/lib: build with dune build @all first" >&2
  exit 2
fi
[ "$status" -eq 0 ] && echo "no polymorphic comparison in $checked objects"
exit $status
