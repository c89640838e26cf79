#!/bin/sh
# Fail when a library export has no user outside its own module.
#
# Every `val NAME` and `exception NAME` of lib/*/*.mli must be named by
# some other .ml/.mli under lib, bin, bench, examples, perfbench or test.
# The compiler's warnings 32 and 38 only see values and exceptions an
# interface hides; this catches the ones it exports.  The match is by bare identifier, so a name that also
# occurs elsewhere for another reason passes: the check can miss a dead
# export, but it never flags a live one.
#
# Usage: sh scripts/unused_exports.sh   (from anywhere; exit 1 lists them)
set -eu
cd "$(dirname "$0")/.."

files=$(find lib bin bench examples perfbench test \
  \( -name _build -o -name _work \) -prune -o \
  \( -name '*.ml' -o -name '*.mli' \) -type f -print | sort)

# One "FILE:IDENT" line per identifier a file names, then one
# "MLI:LINE:val NAME ..." or "MLI:LINE:exception NAME ..." line per export.
# shellcheck disable=SC2086
{
  grep -oHE "[A-Za-z_][A-Za-z0-9_']*" $files | sort -u
  echo '--'
  grep -HnE '^[[:space:]]*(val[[:space:]]+[a-z_]|exception[[:space:]]+[A-Z])' lib/*/*.mli
} | awk '
  $0 == "--" { exports = 1; next }
  !exports {
    i = index($0, ":"); f = substr($0, 1, i - 1); w = substr($0, i + 1)
    sub(/\.mli?$/, "", f)
    # Remember up to two distinct modules per identifier: enough to tell
    # whether any module other than the exporter names it.
    if (!(w in first)) first[w] = f
    else if (first[w] != f) other[w] = f
    next
  }
  {
    split($0, p, ":"); mli = p[1]; line = p[2]
    decl = substr($0, length(mli) + length(line) + 3)
    sub(/^[[:space:]]*(val|exception)[[:space:]]+/, "", decl)
    match(decl, /^[A-Za-z_][A-Za-z0-9_]*/)
    name = substr(decl, 1, RLENGTH)
    self = mli; sub(/\.mli$/, "", self)
    if (!((name in first && first[name] != self) || (name in other))) {
      m = self; sub(/.*\//, "", m); m = toupper(substr(m, 1, 1)) substr(m, 2)
      printf "%s:%s: %s.%s\n", mli, line, m, name
      n++
    }
  }
  END {
    if (n) {
      printf "%d export(s) named by no other file: drop them from the .mli\n", n
      exit 1
    }
  }'
