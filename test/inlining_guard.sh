#!/bin/sh
# Fails when a .cmx was compiled -opaque against the repo's libraries.
#
# Usage: inlining_guard.sh OCAMLOBJINFO FILE.cmx...
#
# An implementation compiled against an -opaque dependency records the
# all-dash CRC placeholder for it under "Implementations imported", and
# ocamlopt then neither inlines nor calls directly into that module.
# dune's dev profile compiles every library -opaque; dune-workspace
# selects the release profile so the round loop's cross-module calls
# (Topology, Arena, Pqueue, Potential) inline.  Each checked file must
# import at least one Bstnet/Simkit/Profkit/Cbnet implementation, and
# every such import must carry a real CRC.
set -eu
objinfo=$1
shift
status=0
for cmx in "$@"; do
  if ! "$objinfo" "$cmx" | awk -v cmx="$cmx" '
    /^Implementations imported:/ { section = 1; next }
    /^[^\t]/ { section = 0 }
    section && $2 ~ /^(Bstnet|Simkit|Profkit|Cbnet)__/ {
      seen++
      if ($1 ~ /^-+$/) opaque = opaque " " $2
    }
    END {
      if (!seen) { printf "%s: no repo implementation imports found\n", cmx; exit 1 }
      if (opaque != "") {
        printf "%s: compiled against -opaque%s (use the release profile from dune-workspace, not --profile dev)\n", cmx, opaque
        exit 1
      }
    }' >&2; then
    status=1
  fi
done
exit $status
